
import hashlib

import pytest

from conftest import both_result_for, params_for, snf_group_for
from cyclocrit import abelian, coprime_part, critgroup, critical_group, index3, snf
from cyclocrit.abelian import AbelianGroupDesc, factorint
from cyclocrit.carries import check_conservation
from cyclocrit.cli import main
from cyclocrit.critgroup import order_factorization
from cyclocrit.errors import BoundExceededError, MethodMismatchError


def test_coprime_part_trivial_q16():
    group, u_free, v_free = coprime_part(params_for(2, 3, 2))
    assert (u_free, v_free) == (1, 1)
    assert group.divisors == ()


def test_coprime_part_q25():
    group, u_free, v_free = coprime_part(params_for(5, 3, 1))
    assert (u_free, v_free) == (1, 2)
    assert group.divisors == ((2, 1, 16),)  # exponent q-k-1 = 16


def test_coprime_part_q256():
    P = params_for(2, 3, 4)
    group, u_free, v_free = coprime_part(P)
    assert (u_free, v_free) == (3, 5)
    assert group.divisors == ((3, 1, 85), (5, 1, 170))
    # the homocyclic exponents are k and q-k-1, confirmed by the SNF oracle
    oracle = snf_group_for(2, 3, 4).divisors
    assert group.divisors == tuple(dv for dv in oracle if dv[0] != 2)


def test_order_factorization():
    fac = order_factorization(params_for(2, 3, 2))
    assert fac == {2: 31}
    fac = order_factorization(params_for(5, 3, 1))
    assert fac == {2: 16, 5: 22}


def test_both_methods_q16():
    res = both_result_for(2, 3, 2)
    assert res.group.free_rank == 1
    assert res.group.divisors == ((2, 2, 4), (2, 3, 1), (2, 5, 4))
    assert res.group.order() == 2**31
    assert "formula==bruteforce" in res.checks


def test_both_methods_q25():
    res = both_result_for(5, 3, 1)
    assert res.group.divisors == ((2, 1, 16), (5, 1, 10), (5, 2, 6))
    assert res.group.order() == 2**16 * 5**22


def test_both_methods_ell5():
    res = both_result_for(3, 5, 1)
    assert res.group.divisors == ((2, 1, 64), (3, 2, 50), (3, 4, 14))
    u, v, k, q = 9, 18, 16, 81
    assert res.group.order() == u**k * v ** (q - k - 1) // q


def test_method_mismatch_names_first_difference(monkeypatch):
    """One patched brute-force divisor: the error names it and its prime, not two whole groups."""
    good = snf_group_for(2, 3, 2)
    assert good.divisors == ((2, 2, 4), (2, 3, 1), (2, 5, 4))
    bad = AbelianGroupDesc.from_prime_powers([(2, 2, 4), (2, 3, 1), (2, 5, 3), (2, 6, 1)], free_rank=1)
    monkeypatch.setattr(snf, "critical_group_by_snf", lambda table: bad)
    with pytest.raises(MethodMismatchError) as err:
        critical_group(params_for(2, 3, 2), "both")
    assert str(err.value) == (
        "formula and brute-force groups disagree: at prime 2, formula has [2, 5, 4], bruteforce has [2, 5, 3]"
    )


def test_formula_only_no_field_needed():
    # q = 5^12 is far beyond table bounds; the formula path must not build tables
    P = params_for(5, 3, 6)
    res = critical_group(P, "formula")
    assert res.group.order_factorization() == order_factorization(P)
    assert res.group.free_rank == 1


def test_bruteforce_only_method():
    P = params_for(2, 3, 2)
    res = critical_group(P, "bruteforce")
    assert res.group.divisors == ((2, 2, 4), (2, 3, 1), (2, 5, 4))
    assert res.checks == ("bruteforce:full-snf",)


def test_method_validation():
    with pytest.raises(ValueError):
        critical_group(params_for(2, 3, 2), "guess")


def test_factorint_psi_12():
    """psi_12, a strong pseudoprime to bases 2..37, is composite to base 41 and factored."""
    assert factorint(318665857834031151167461) == {399165290221: 1, 798330580441: 1}


def test_factorint():
    assert factorint(1) == {}
    assert factorint(96) == {2: 5, 3: 1}
    assert factorint(2**16 * 5**22) == {2: 16, 5: 22}
    n = 1000003 * 1000033  # beyond the trial-division limit
    assert factorint(n) == {1000003: 1, 1000033: 1}


FORMULA_2_3_62 = ["compute", "--p", "2", "--ell", "3", "--t", "62", "--method", "formula"]


def test_formula_factors_each_eigenvalue_once(monkeypatch, capsys):
    """At (2, 3, 62) only v's 61-bit cofactor needs Pollard rho, and it runs once per run.

    The digest pins the run's stdout byte for byte.
    """
    calls = []
    rho = abelian._pollard_rho
    monkeypatch.setattr(abelian, "_pollard_rho", lambda n: calls.append(n) or rho(n))
    assert main(FORMULA_2_3_62) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fb3a494f611e728539420f9b146f508d8b00adffd68f91d482511230750b3ced"
    )
    assert [n.bit_length() for n in calls] == [61]


def test_rho_step_budget_exits_1(monkeypatch, capsys):
    """The same cofactor needs 19,096 rho steps: a budget of 2^10 refuses it with exit 1."""
    monkeypatch.setattr(abelian, "RHO_STEP_LIMIT", 1 << 10)
    assert main(FORMULA_2_3_62) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: FactorizationError: ") and err.count("\n") == 1


def test_rho_refusal_precedes_the_walk_recursion(monkeypatch, capsys):
    """u and v are factored before the p-part: a refused factorization never reaches the walk recursion."""
    monkeypatch.setattr(abelian, "RHO_STEP_LIMIT", 1 << 10)
    calls = []
    monkeypatch.setattr(index3, "closed_walk_poly", lambda p, t: calls.append((p, t)))
    assert main(FORMULA_2_3_62) == 1
    out, err = capsys.readouterr()
    assert calls == [] and out == ""
    assert err.startswith("error: FactorizationError: ") and err.count("\n") == 1


@pytest.mark.parametrize("trip", [(2, 3, 159), (2, 5, 7)])
def test_work_bound_refusal_precedes_factoring(monkeypatch, trip):
    """The walk and enumeration bounds refuse before u and v are factored."""
    calls = []
    monkeypatch.setattr(critgroup, "eigenvalue_factorizations", calls.append)
    with pytest.raises(BoundExceededError):
        critical_group(params_for(*trip), "formula")
    assert calls == []


def test_group_desc_canonical_form():
    a = AbelianGroupDesc.from_prime_powers([(5, 1, 3), (2, 2, 1), (5, 1, 2)])
    assert a.divisors == ((2, 2, 1), (5, 1, 5))
    assert a.order() == 4 * 5**5
    assert a.invariant_factors() == (5, 5, 5, 5, 20)
    chain_back = AbelianGroupDesc.from_invariant_factors(a.invariant_factors())
    assert chain_back == a


def test_wrong_p_part_exits_2_under_optimize(optimized_runs):
    """order-formula is a raise, so python -O still reports a p-part of the wrong order."""
    code, _, err = optimized_runs["p-part"]
    assert code == 2, err
    assert err.startswith("mismatch:")


@pytest.mark.parametrize(
    "scenario, detail",
    [
        ("negative-multiplicity", "elementary divisor 2^6 has multiplicity -39"),
        ("negative-multiplicity-walks", "elementary divisor 2^2 has multiplicity -36"),
    ],
)
def test_negative_multiplicity_exits_2_under_optimize(optimized_runs, scenario, detail):
    """A histogram or walk count off by 40 keeps the order but drives a forced multiplicity below 1."""
    code, out, err = optimized_runs[scenario]
    assert code == 2, err
    assert out == ""
    assert err == f"mismatch: {detail}\n"


def test_conservation_failure_exits_2(capsys, monkeypatch):
    """ConservationError is a MismatchError: a p-part that breaks the count exits 2, not 1."""
    good = critgroup.p_part_multiplicities

    def unbalanced(params):
        mult = dict(good(params))
        mult[0] += 1
        check_conservation(mult, params)
        return mult

    monkeypatch.setattr(critgroup, "p_part_multiplicities", unbalanced)
    code = main(["compute", "--p", "2", "--ell", "5", "--t", "2", "--method", "formula"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "mismatch: sum of multiplicities 256 != q - 1 = 255\n"

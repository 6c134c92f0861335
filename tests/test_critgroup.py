
import pytest

from conftest import both_result_for, params_for, run_optimized, snf_group_for
from cyclocrit import coprime_part, critical_group
from cyclocrit.abelian import AbelianGroupDesc, factorint
from cyclocrit.critgroup import order_factorization
from cyclocrit.errors import MethodMismatchError


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
    assert res.order == 2**31
    assert "formula==bruteforce" in res.checks


def test_both_methods_q25():
    res = both_result_for(5, 3, 1)
    assert res.group.divisors == ((2, 1, 16), (5, 1, 10), (5, 2, 6))
    assert res.order == 2**16 * 5**22


def test_both_methods_ell5():
    res = both_result_for(3, 5, 1)
    assert res.group.divisors == ((2, 1, 64), (3, 2, 50), (3, 4, 14))
    u, v, k, q = 9, 18, 16, 81
    assert res.order == u**k * v ** (q - k - 1) // q


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
    assert res.p_part == {0: 6, 2: 4, 3: 1, 5: 4}


def test_method_validation():
    with pytest.raises(ValueError):
        critical_group(params_for(2, 3, 2), "guess")


def test_factorint():
    assert factorint(1) == {}
    assert factorint(96) == {2: 5, 3: 1}
    assert factorint(2**16 * 5**22) == {2: 16, 5: 22}
    n = 1000003 * 1000033  # beyond the trial-division limit
    assert factorint(n) == {1000003: 1, 1000033: 1}


def test_group_desc_canonical_form():
    a = AbelianGroupDesc.from_prime_powers([(5, 1, 3), (2, 2, 1), (5, 1, 2)])
    assert a.divisors == ((2, 2, 1), (5, 1, 5))
    assert a.order() == 4 * 5**5
    assert a.invariant_factors() == (5, 5, 5, 5, 20)
    chain_back = AbelianGroupDesc.from_invariant_factors(a.invariant_factors())
    assert chain_back == a


def test_wrong_p_part_exits_2_under_optimize():
    """order-formula is a raise, so python -O still reports a p-part of the wrong order."""
    script = (
        "import sys\n"
        "from cyclocrit import cli, critgroup\n"
        "good = critgroup.p_part_multiplicities\n"
        "def shifted(params, *args):\n"
        "    mult = dict(good(params, *args))\n"
        "    mult[2] -= 1\n"
        "    mult[0] += 1\n"
        "    return mult\n"
        "critgroup.p_part_multiplicities = shifted\n"
        "sys.exit(cli.main(['compute', '--p', '2', '--ell', '3', '--t', '2', '--method', 'formula']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("mismatch:")

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import run_optimized
from cyclocrit import validate
from cyclocrit.errors import DisconnectedError, NotPrimeError, NotPrimitiveError
from cyclocrit.params import is_prime, multiplicative_order, p_adic_valuation


def test_clebsch_case():
    P = validate(2, 3, 2)
    assert (P.q, P.k, P.u, P.v, P.d) == (16, 5, 8, 4, 1)
    assert (P.lam, P.mu) == (0, 2)


def test_q25_case():
    P = validate(5, 3, 1)
    assert (P.q, P.k, P.u, P.v, P.d) == (25, 8, 5, 10, 0)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedError):
        validate(2, 5, 1)  # sqrt(q) = 4 = ell - 1, t odd
    with pytest.raises(DisconnectedError):
        validate(2, 3, 1)  # sqrt(q) = 2 = ell - 1


def test_non_primitive_rejected():
    with pytest.raises(NotPrimitiveError):
        validate(7, 3, 1)  # 7 = 1 mod 3
    with pytest.raises(NotPrimitiveError):
        validate(3, 3, 1)  # p = ell is not a unit


def test_non_prime_rejected():
    with pytest.raises(NotPrimeError):
        validate(4, 3, 1)
    with pytest.raises(NotPrimeError):
        validate(2, 9, 1)
    with pytest.raises(NotPrimeError):
        validate(5, 2, 1)  # ell must exceed 2


def test_derived_invariants_sample():
    # validate() checks the eigenvalue valuations, mu/lambda integrality
    # and the order divisibility internally; reaching here means they hold
    for trip in [(2, 3, 2), (2, 3, 4), (5, 3, 1), (3, 5, 1), (2, 11, 1), (3, 7, 1), (7, 5, 1)]:
        P = validate(*trip)
        assert P.vp(P.u * P.v) == P.ext_degree + P.d
        assert (P.u**P.k * P.v ** (P.q - P.k - 1)) % P.q == 0
        assert P.group_order > 0


def test_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert multiplicative_order(2, 11) == 10
    assert multiplicative_order(7, 3) == 1
    assert p_adic_valuation(96, 2) == 5


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17]),
    ell=st.sampled_from([3, 5, 7, 11]),
    t=st.integers(1, 3),
)
def test_validate_total(p, ell, t):
    """validate either yields a coherent Params or raises a typed rejection."""
    try:
        P = validate(p, ell, t)
    except (NotPrimeError, NotPrimitiveError, DisconnectedError):
        return
    assert P.q == p ** ((ell - 1) * t)
    assert P.q - 1 == ell * P.k
    assert P.u > 0 and P.v > 0
    assert P.sqrt_q * P.sqrt_q == P.q


def test_wrong_valuation_exits_2_under_optimize():
    """validate's output-backing identities raise MismatchError, so python -O cannot skip them."""
    code = (
        "import sys\n"
        "from cyclocrit import cli, params\n"
        "good = params.p_adic_valuation\n"
        "params.p_adic_valuation = lambda x, p: good(x, p) + (x == 8)\n"
        "sys.exit(cli.main(['compute', '--p', '2', '--ell', '3', '--t', '2', '--method', 'formula']))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 2, res.stderr
    assert res.stderr == "mismatch: v_p(u) = 4, v_p(v) = 2 != 3, 2\n" and not res.stdout

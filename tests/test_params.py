import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclocrit import params, validate
from cyclocrit.abelian import PSI_13, is_prime
from cyclocrit.errors import BoundExceededError, DisconnectedError, NotPrimeError, NotPrimitiveError
from cyclocrit.params import MAX_Q_BITS, multiplicative_order, p_adic_valuation


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


def test_large_primes_decided_by_miller_rabin():
    """psi_11 = 3825123056546413051 passes bases 2..31 and fails 37; 10^18 + 31 is prime and 2 mod 3."""
    with pytest.raises(NotPrimeError, match="p = 3825123056546413051 is not prime"):
        validate(3825123056546413051, 3, 1)
    P = validate(1000000000000000031, 3, 1)
    assert P.q == P.p**2


def test_primality_bound_refused():
    """p or ell at or above psi_13 is refused as a bound, before any primality test."""
    for p, ell in ((PSI_13, 3), (2, PSI_13 + 2)):
        with pytest.raises(BoundExceededError, match=str(PSI_13)):
            validate(p, ell, 1)


def test_q_bits_bound_refused_before_order(monkeypatch):
    """q above MAX_Q_BITS bits is refused before validate forms q or runs multiplicative_order."""
    assert validate(2, 3, MAX_Q_BITS // 2).q.bit_length() == MAX_Q_BITS + 1  # 2^4096 itself is accepted

    def refuse(a, n):
        raise AssertionError("multiplicative_order ran past the q bound")

    monkeypatch.setattr(params, "multiplicative_order", refuse)
    for p, ell, t in ((2, 3, MAX_Q_BITS // 2 + 1), (2, 1000003, 1), (3, 5, 10**400)):
        with pytest.raises(BoundExceededError, match=f"more than {MAX_Q_BITS} bits"):
            validate(p, ell, t)


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


def test_wrong_valuation_exits_2_under_optimize(optimized_runs):
    """validate's output-backing identities raise MismatchError, so python -O cannot skip them."""
    code, out, err = optimized_runs["valuation"]
    assert code == 2, err
    assert err == "mismatch: v_p(u) = 4, v_p(v) = 2 != 3, 2\n" and not out

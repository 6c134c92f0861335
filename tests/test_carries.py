from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for, params_for
from cyclocrit import (
    carry_count,
    carries,
    digit_sum,
    digit_vector,
    laplacian_p_multiplicities,
    min_carries,
    min_carries_histogram,
    p_part_from_carries,
)
from cyclocrit.errors import BoundExceededError, MismatchError, UndefinedSumError, ZeroResidueError


def carry_count_by_addition(a, b, params):
    """Reference for carry_count: the add-with-carry loop on the digit strings.

    The carry out of the top digit wraps around to position 0 (addition
    is modulo q-1 = p^e - 1), and wraparound cascades are counted too.
    An implementation independent of the digit-sum formula.
    """
    p = params.p
    da = list(digit_vector(a, params).digits)
    db = digit_vector(b, params).digits
    if (a + b) % (params.q - 1) == 0:
        raise UndefinedSumError("a + b is divisible by q-1; expansion undefined")
    e = len(da)
    count = 0
    carry = 0
    for i in range(e):
        tot = da[i] + db[i] + carry
        carry = tot // p
        da[i] = tot % p
        if carry:
            count += 1
    if carry:  # carry out of the top digit wraps to position 0 and may cascade
        pos = 0
        while True:
            tot = da[pos] + 1
            da[pos] = tot % p
            if tot < p:
                break
            count += 1
            pos = (pos + 1) % e
    assert sum(d * p**i for i, d in enumerate(da)) == (a + b) % (params.q - 1)
    return count


def test_digit_expansion_of_one():
    P = params_for(2, 3, 2)
    dv = digit_vector(1, P)
    assert dv.digits == (1, 0, 0, 0) and dv.digit_sum == 1


def test_digits_of_k_q25():
    P = params_for(5, 3, 1)
    dv = digit_vector(P.k, P)
    assert dv.digits == (3, 1) and dv.digit_sum == 4 == P.t * (P.p - 1)


def test_digits_q16_wraparound_value():
    P = params_for(2, 3, 2)
    assert digit_vector(14, P).digits == (0, 1, 1, 1)
    assert digit_sum(14, P) == 3
    # residues are taken mod q-1
    assert digit_vector(16, P).digits == (1, 0, 0, 0)


def test_zero_residue_rejected():
    P = params_for(2, 3, 2)
    with pytest.raises(ZeroResidueError):
        digit_vector(15, P)
    with pytest.raises(ZeroResidueError):
        digit_vector(0, P)


def test_carry_count_examples():
    P = params_for(2, 3, 2)
    assert carry_count(3, 5, P) == 3
    assert carry_count_by_addition(3, 5, P) == 3
    assert carry_count_by_addition(14, 3, P) == 4  # wraparound cascade
    P25 = params_for(5, 3, 1)
    assert carry_count(1, 2, P25) == 0


def test_undefined_sum_rejected():
    P = params_for(2, 3, 2)
    with pytest.raises(UndefinedSumError):
        carry_count(6, 9, P)
    with pytest.raises(UndefinedSumError):
        carry_count_by_addition(6, 9, P)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_carry_count_properties(data):
    P = data.draw(st.sampled_from([params_for(2, 3, 2), params_for(5, 3, 1), params_for(2, 3, 3)]))
    q = P.q
    a = data.draw(st.integers(1, q - 2))
    b = data.draw(st.integers(1, q - 2))
    if (a + b) % (q - 1) == 0:
        return
    c = carry_count(a, b, P)
    assert c == carry_count(b, a, P)
    assert c == carry_count_by_addition(a, b, P)
    assert 0 <= c <= P.ext_degree


def test_carry_implementations_agree_exhaustively():
    for trip in [(2, 3, 2), (5, 3, 1)]:
        P = params_for(*trip)
        q = P.q
        for a in range(1, q - 1):
            for b in range(a, q - 1):
                if (a + b) % (q - 1) == 0:
                    continue
                assert carry_count(a, b, P) == carry_count_by_addition(a, b, P)


def test_complementary_carries():
    """c(i+mk, nk) + c(i+(m+n)k, (ell-n)k) = (ell-1)t: the reflection pairing."""
    for trip in [(2, 3, 2), (5, 3, 1), (3, 5, 1)]:
        P = params_for(*trip)
        ell, k, e = P.ell, P.k, P.ext_degree
        for i in range(1, min(P.k, 12)):
            for m in range(ell):
                for n in range(1, ell):
                    lhs = carry_count(i + m * k, n * k, P)
                    rhs = carry_count(i + (m + n) * k, (ell - n) * k, P)
                    assert lhs + rhs == e


def test_subgroup_coset_digit_rotation():
    """Digits of m*k are a permutation of the digits of k; all share one digit sum."""
    for trip in [(5, 3, 1), (2, 3, 3), (3, 5, 1), (3, 7, 1)]:
        P = params_for(*trip)
        base = sorted(digit_vector(P.k, P).digits)
        target = P.ext_degree * (P.p - 1) // 2
        for m in range(1, P.ell):
            dv = digit_vector(m * P.k, P)
            assert sorted(dv.digits) == base
            assert dv.digit_sum == target


def test_min_carries_examples():
    P = params_for(5, 3, 1)
    multiset = Counter(min_carries(i, P) for i in range(1, P.k))
    assert multiset == {0: 6, 1: 1}
    P16 = params_for(2, 3, 2)
    assert all(min_carries(i, P16) == 0 for i in range(1, 5))


def test_histogram_matches_scalar_path():
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        P = params_for(*trip)
        hist = min_carries_histogram(P)
        scalar = Counter(min_carries(i, P) for i in range(1, P.k))
        assert hist == dict(scalar)


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        min_carries_histogram(params_for(5, 3, 1), enum_bound=3)


def test_p_part_q25():
    assert p_part_from_carries(params_for(5, 3, 1)) == {0: 8, 1: 10, 2: 6}


def test_p_part_q16():
    assert p_part_from_carries(params_for(2, 3, 2)) == {0: 6, 2: 4, 3: 1, 5: 4}


def test_p_part_q256_published_table():
    e = p_part_from_carries(params_for(2, 3, 4))
    assert e[0] == 30
    assert [e.get(j, 0) for j in range(1, 10)] == [32, 8, 16, 84, 1, 16, 8, 32, 28]


def test_p_part_middle_sum_reading_ell7():
    """(3,7,1) separates the two readings of the middle-case partial sum;
    the matrix adjudicates for summing below half the extension degree."""
    P = params_for(3, 7, 1)
    got = p_part_from_carries(P)
    assert got == {0: 78, 1: 24, 3: 522, 4: 4, 6: 24, 7: 76}
    ground = laplacian_p_multiplicities(field_for(3, 7, 1))
    assert got == ground
    # the rejected reading (sum over j < t) would give e_3 = 546, e_4 = 28
    assert got[3] != 546


def test_p_part_ell5_fixture():
    P = params_for(2, 5, 2)
    got = p_part_from_carries(P)
    assert got == {0: 36, 1: 16, 4: 152, 6: 1, 9: 16, 10: 34}
    assert got == laplacian_p_multiplicities(field_for(2, 5, 2))


def test_carry_invariants_raise_mismatch(monkeypatch):
    """Broken digit sums fail as MismatchError (exit 2), not as an assert that -O strips."""
    P3 = params_for(3, 5, 1)  # p - 1 = 2, so an odd digit-sum difference is impossible
    good = carries.digit_sum
    monkeypatch.setattr(carries, "digit_sum", lambda a, P: good(a, P) + (a == 1))
    with pytest.raises(MismatchError, match="carries"):
        carry_count(1, 2, P3)
    monkeypatch.setattr(carries, "digit_sum", lambda a, P: good(a, P) + 10 * (a == 1))
    with pytest.raises(MismatchError, match="min_carries"):
        min_carries(1, params_for(2, 3, 2))

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for, params_for
from cyclocrit import (
    carry_count,
    carries,
    digit_sums,
    laplacian_p_multiplicities,
    min_carries,
    min_carries_histogram,
    p_part_from_carries,
)
from cyclocrit.errors import BoundExceededError, MismatchError, UndefinedSumError, ZeroResidueError


def digits(a, params):
    """Base-p digits (least significant first) of a mod q-1, by repeated division."""
    x = a % (params.q - 1)
    if x == 0:
        raise ZeroResidueError(f"{a} is divisible by q-1")
    return tuple(x // params.p**i % params.p for i in range(params.ext_degree))


def carry_count_by_addition(a, b, params):
    """Reference for carry_count: the add-with-carry loop on the digit strings.

    The carry out of the top digit wraps around to position 0 (addition
    is modulo q-1 = p^e - 1), and wraparound cascades are counted too.
    An implementation independent of the digit-sum formula.
    """
    p = params.p
    da = list(digits(a, params))
    db = digits(b, params)
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
    assert digits(1, P) == (1, 0, 0, 0) and digit_sums(1, P) == 1


def test_digits_of_k_q25():
    P = params_for(5, 3, 1)
    assert digits(P.k, P) == (3, 1) and digit_sums(P.k, P) == 4 == P.t * (P.p - 1)


def test_digits_q16_wraparound_value():
    P = params_for(2, 3, 2)
    assert digits(14, P) == (0, 1, 1, 1)
    assert digit_sums(14, P) == 3
    # residues are taken mod q-1
    assert digit_sums(16, P) == 1


def test_zero_residue_rejected():
    P = params_for(2, 3, 2)
    with pytest.raises(ZeroResidueError, match="^15 "):
        digit_sums(15, P)
    with pytest.raises(ZeroResidueError, match="^30 "):
        digit_sums(np.array([[1, 2], [30, 0]]), P)


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (3, 5, 1), (2, 3, 3), (3, 7, 1)])
def test_digit_sums_match_digit_strings(trip):
    """Legendre's identity equals the sum of the digit strings, for every residue and any shape."""
    P = params_for(*trip)
    r = np.arange(1, P.q - 1)
    want = [sum(digits(int(a), P)) for a in r]
    assert digit_sums(r, P).tolist() == want
    assert digit_sums(r.reshape(-1, 1) + (P.q - 1), P).ravel().tolist() == want


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
    assert c.shape == () and c == carry_count(b, a, P)
    assert c == carry_count_by_addition(a, b, P)
    assert 0 <= c <= P.ext_degree


def test_carry_implementations_agree_exhaustively():
    """One broadcast carry_count over every admissible pair equals the addition loop."""
    for trip in [(2, 3, 2), (5, 3, 1)]:
        P = params_for(*trip)
        q = P.q
        a, b = np.arange(1, q - 1)[:, None], np.arange(1, q - 1)
        ok = (a + b) % (q - 1) != 0
        got = carry_count(np.where(ok, a, 1), np.where(ok, b, 1), P)
        for x in range(1, q - 1):
            for y in range(1, q - 1):
                if ok[x - 1, y - 1]:
                    assert got[x - 1, y - 1] == carry_count_by_addition(x, y, P)


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
        i = np.arange(1, P.k)[:, None, None]
        m, n = np.arange(ell)[:, None], np.arange(1, ell)
        assert (carry_count(i + m * k, n * k, P) + carry_count(i + (m + n) * k, (ell - n) * k, P) == e).all()


def test_subgroup_coset_digit_rotation():
    """Digits of m*k are a permutation of the digits of k; all share one digit sum."""
    for trip in [(5, 3, 1), (2, 3, 3), (3, 5, 1), (3, 7, 1)]:
        P = params_for(*trip)
        base = sorted(digits(P.k, P))
        target = P.ext_degree * (P.p - 1) // 2
        for m in range(1, P.ell):
            assert sorted(digits(m * P.k, P)) == base
        assert (digit_sums(np.arange(1, P.ell) * P.k, P) == target).all()


def min_carries_by_pairs(i, P):
    """Reference for min_carries: the least carry_count_by_addition over the coset's ell(ell-1) pairs."""
    return min(
        carry_count_by_addition(i + m * P.k, n * P.k, P) for m in range(P.ell) for n in range(1, P.ell)
    )


def test_min_carries_examples():
    P = params_for(5, 3, 1)
    multiset = Counter(min_carries(np.arange(1, P.k), P).tolist())
    assert multiset == {0: 6, 1: 1}
    P16 = params_for(2, 3, 2)
    assert (min_carries(np.arange(1, 5), P16) == 0).all()
    assert min_carries(3, P16).shape == () and min_carries([[1, 2], [3, 4]], P16).shape == (2, 2)
    for bad in (0, P16.k, [1, P16.k]):
        with pytest.raises(ValueError):
            min_carries(bad, P16)


def test_histogram_matches_scalar_path(monkeypatch):
    """The chunked histogram counts the addition-loop minimum over every coset, whatever the chunk."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        P = params_for(*trip)
        ref = [min_carries_by_pairs(i, P) for i in range(1, P.k)]
        assert min_carries(np.arange(1, P.k), P).tolist() == ref
        for chunk in (1, 3, carries.HIST_CHUNK):
            monkeypatch.setattr(carries, "HIST_CHUNK", chunk)
            assert min_carries_histogram(P) == dict(Counter(ref))


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
    good = carries.digit_sums
    monkeypatch.setattr(carries, "digit_sums", lambda a, P: good(a, P) + (np.asarray(a) == 1))
    with pytest.raises(MismatchError, match=r"^digit sums of \(1, 2\) give 3/\(p-1\) carries"):
        carry_count([3, 1], [4, 2], P3)
    monkeypatch.setattr(carries, "digit_sums", lambda a, P: good(a, P) + 10 * (np.asarray(a) == 1))
    with pytest.raises(MismatchError, match=r"^min_carries\(1\)"):
        min_carries(np.arange(1, 5), params_for(2, 3, 2))

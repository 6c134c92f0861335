import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible, admissible_up_to_table_bound, field_for, min_carries_histogram_reference, params_for
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
from cyclocrit.params import p_part_from_lower_half


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


@pytest.mark.parametrize("trip", [(2, 3, 31), (3, 5, 9), (5, 3, 13), (11, 3, 9), (251, 3, 3)])
def test_digit_sums_match_legendre_at_largest_e(trip):
    """Table lookups equal Legendre's r - (p-1) sum_i floor(r / p^i), r random or all digits p - 1 below some p^j.

    Each triple has the largest e = (ell-1)t an admissible triple reaches
    with q - 1 in int64, for its p.
    """
    P = params_for(*trip)
    r = np.concatenate([
        np.random.default_rng(P.p).integers(1, P.q - 1, size=2000),
        [P.p**j - 1 for j in range(1, P.ext_degree)] + [P.q - 2],
    ])

    def legendre(x):
        floors, y = 0, x
        while y:
            y //= P.p
            floors += y
        return x - (P.p - 1) * floors

    assert digit_sums(r, P).tolist() == [legendre(int(x)) for x in r]


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


def min_carries_by_pairwise_sums(idx, P):
    """Reference for min_carries' shortcut: the least (s(i + m*k) + s(n*k) - s(i + (m+n)*k)) / (p-1) over every m, n."""
    ell, k = P.ell, P.k
    sums = digit_sums(np.arange(ell)[:, None] * k + idx, P)
    s_k = digit_sums(np.arange(1, ell) * k, P)
    return np.min([sums[m] + s_k[n - 1] - sums[(m + n) % ell] for m in range(ell) for n in range(1, ell)], axis=0) // (
        P.p - 1
    )


def test_min_carries_matches_pairwise_sums():
    """The least digit sum less the largest equals the minimum over all ell(ell-1) pairs, ell = 3 to 13."""
    triples = admissible(1 << 40) + [params_for(2, 13, 1), params_for(2, 13, 2)]
    assert {P.ell for P in triples} == {3, 5, 7, 11, 13}
    rng = np.random.default_rng(0)
    for P in triples:
        idx = np.arange(1, P.k) if P.k < 5000 else rng.integers(1, P.k, 5000)
        assert np.array_equal(min_carries(idx, P), min_carries_by_pairwise_sums(idx, P)), (P.p, P.ell, P.t)


def test_histogram_matches_scalar_path(monkeypatch):
    """The chunked histogram counts the addition-loop minimum over every coset, whatever the chunk."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        P = params_for(*trip)
        ref = [min_carries_by_pairs(i, P) for i in range(1, P.k)]
        assert min_carries(np.arange(1, P.k), P).tolist() == ref
        for chunk in (1, 3, carries.HIST_CHUNK):
            monkeypatch.setattr(carries, "HIST_CHUNK", chunk)
            assert min_carries_histogram(P) == dict(Counter(ref))


def test_orbit_histogram_matches_reference(monkeypatch):
    """One coset per Frobenius orbit gives the full-enumeration histogram, up to (2,11,2), and below k = 5000
    also with 1 or 3 sieved candidates a step."""
    triples = [P for P in admissible(11 * 10**5 + 1) if P.k <= 10**5] + [params_for(2, 13, 1)]
    assert (2, 11, 2) in {(P.p, P.ell, P.t) for P in triples}
    for P in triples:
        want = min_carries_histogram_reference(P)
        for chunk in (carries.HIST_CHUNK, 1, 3)[: 1 if P.k > 5000 else 3]:
            monkeypatch.setattr(carries, "HIST_CHUNK", chunk)
            assert min_carries_histogram(P) == want, (P.p, P.ell, P.t, chunk)
        monkeypatch.undo()


def spans_to_array(starts, ends):
    return np.concatenate([np.arange(0)] + [np.arange(x, y) for x, y in zip(starts.tolist(), ends.tolist())])


def test_sieve_matches_brute_force():
    """Each sieved rotation's intervals are {i : p^j * i mod k >= i}, and the sieve keeps the i that pass all of them.

    Every admissible triple with k - 1 <= 2^16.  The sieve goes exactly as deep as s < e largest with
    p^(2s) <= k; one level, _sieve(a, k, 2) with a^2 <= k, is the closed form for a alone.
    """
    triples = admissible(11 * ((1 << 16) + 1) + 1) + admissible_up_to_table_bound()
    triples = {(P.p, P.k, P.ext_degree) for P in triples if P.k - 1 <= 1 << 16}
    assert len(triples) > 40 and max(k for _, k, _ in triples) > 50_000
    for p, k, e in sorted(triples):
        starts, ends, s = carries._sieve(p, k, e)
        assert s == max(j for j in range(e) if p ** (2 * j) <= k), (p, k, e)
        i, keep = np.arange(1, k), np.ones(k - 1, dtype=bool)
        for a in (p**j for j in range(1, s + 1)):
            *one, depth = carries._sieve(a, k, 2)
            assert depth == 1 and np.array_equal(spans_to_array(*one), i[a * i % k >= i]), (p, k, e, a)
            keep &= a * i % k >= i
        assert np.array_equal(spans_to_array(starts, ends), i[keep]), (p, k, e)


def orbits_by_enumeration(p, k, e):
    """{least member: size} of every orbit of i -> p*i mod k on 1..k-1, from the orbits' members."""
    orbits = {frozenset(i * p**j % k for j in range(e)) for i in range(1, k)}
    return {min(orbit): len(orbit) for orbit in orbits}


def test_orbit_representatives_match_enumeration():
    """Representatives and orbit sizes on whole and partial ranges, for p = 2, 3, 5, 7, 17 and every k < 10."""
    cases = [(P.p, P.k, P.ext_degree) for P in admissible(2401) + [params_for(17, 3, 1), params_for(17, 3, 2)]]
    for p in (2, 3, 5, 7, 17):
        for k in range(2, 10):
            if math.gcd(p, k) == 1:
                order = next(d for d in range(1, k) if pow(p, d, k) == 1)
                cases += [(p, k, order), (p, k, 2 * order)]
    assert {p for p, _, _ in cases} >= {3, 5, 7, 17} and any(k > 20_000 for _, k, _ in cases)
    for p, k, e in cases:
        want, P = orbits_by_enumeration(p, k, e), SimpleNamespace(p=p, k=k, ext_degree=e)
        for lo, hi in {(1, k), (1, 1 + k // 3), (k // 3 + 1, k // 2 + 1), (k // 2 + 1, k)}:
            reps, sizes = carries._orbit_representatives(lo, hi, P)
            assert reps.tolist() == sorted(r for r in want if lo <= r < hi), (p, k, e, lo, hi)
            assert sizes.tolist() == [want[r] for r in reps.tolist()], (p, k, e, lo, hi)


@pytest.mark.parametrize("trip", [(2, 13, 2), (2, 5, 6)])
def test_sieve_leaves_a_fifth(monkeypatch, trip):
    """The sieve hands numpy at most 0.2 (k-1) candidates (0.155 at both), at most HIST_CHUNK a step.

    A sieve that quietly stopped sieving would still give the right histogram, only slower.
    """
    P = params_for(*trip)
    starts, ends, _ = carries._sieve(P.p, P.k, P.ext_degree)
    upto, ranges, good = np.cumsum(ends - starts), [], carries._orbit_representatives

    def recording(lo, hi, P):
        ranges.append((lo, hi))
        return good(lo, hi, P)

    monkeypatch.setattr(carries, "_orbit_representatives", recording)
    min_carries_histogram(P)
    assert upto[-1] <= 0.2 * (P.k - 1)
    assert len(ranges) == -(-upto[-1] // carries.HIST_CHUNK)
    for lo, hi in ranges:
        assert 0 < np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0, None).sum() <= carries.HIST_CHUNK


def test_histogram_memory():
    """min_carries_histogram at (2,5,6) peaks below the 525 KB of 4,096 unsieved cosets a step (tracemalloc)."""
    P = params_for(2, 5, 6)
    tracemalloc.start()
    try:
        min_carries_histogram(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 525_000, peak


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_min_carries_frobenius_invariant(data):
    """min_carries(i) == min_carries(p*i mod k), and every orbit size divides e."""
    P = data.draw(st.sampled_from(admissible(1 << 20)))
    p, k, e = P.p, P.k, P.ext_degree
    i = data.draw(st.integers(1, k - 1))
    assert min_carries(i, P) == min_carries(p * i % k, P)
    orbit = {i * p**j % k for j in range(e)}
    assert e % len(orbit) == 0
    reps, sizes = carries._orbit_representatives(min(orbit), min(orbit) + 1, P)
    assert reps.tolist() == [min(orbit)] and sizes.tolist() == [len(orbit)]
    assert (e % carries._orbit_representatives(1, min(k, 4096), P)[1] == 0).all()


def test_orbit_size_sum_raises_mismatch(monkeypatch):
    """Orbit sizes that do not add up to k-1 fail as MismatchError, not as a wrong histogram."""
    good = carries._orbit_representatives

    def one_counted_twice(lo, hi, P):
        reps, sizes = good(lo, hi, P)
        return reps, sizes + (reps == 1)

    def first_orbit_lost(lo, hi, P):
        reps, sizes = good(lo, hi, P)
        return reps[1:], sizes[1:]

    monkeypatch.setattr(carries, "_orbit_representatives", one_counted_twice)
    with pytest.raises(MismatchError, match=r"^Frobenius orbit sizes sum to 5, not k - 1 = 4$"):
        min_carries_histogram(params_for(2, 3, 2))
    monkeypatch.setattr(carries, "_orbit_representatives", first_orbit_lost)
    with pytest.raises(MismatchError, match=r"^Frobenius orbit sizes sum to \d+, not k - 1 = 84$"):
        min_carries_histogram(params_for(2, 3, 4))


def test_orbit_sample_raises_mismatch(monkeypatch):
    """A sampled non-representative coset that disagrees with its representative is named."""
    P = params_for(2, 3, 4)  # k = 85; the sample is 1, 12, 24, ..., 84, and 12 lies in the orbit of 3
    good = carries.min_carries
    monkeypatch.setattr(carries, "min_carries", lambda idx, P: good(idx, P) + (np.asarray(idx) == 12))
    message = r"^min_carries\(12\) = \d+ differs from \d+ at its Frobenius orbit representative 3$"
    with pytest.raises(MismatchError, match=message):
        min_carries_histogram(P)


def test_enumeration_bound():
    """q = 2^28, ell = 5: k - 1 > 2^24 cosets are refused before any is enumerated."""
    with pytest.raises(BoundExceededError, match="k - 1 = 53687090 exceeds enumeration bound 16777216"):
        min_carries_histogram(params_for(2, 5, 7))


def test_p_part_q25():
    assert p_part_from_carries(params_for(5, 3, 1)) == {0: 8, 1: 10, 2: 6}


def test_p_part_q16():
    assert p_part_from_carries(params_for(2, 3, 2)) == {0: 6, 2: 4, 3: 1, 5: 4}


def test_p_part_q256_published_table():
    e = p_part_from_carries(params_for(2, 3, 4))
    assert e[0] == 30
    assert [e.get(j, 0) for j in range(1, 10)] == [32, 8, 16, 84, 1, 16, 8, 32, 28]


def test_lower_half_assembly():
    """e_(2half+d-j) = e_j for 0 < j < half, e_(2half+d) = e_0 - 2, the middle forced, zeros dropped."""
    assert p_part_from_lower_half({0: 8}, params_for(5, 3, 1)) == {0: 8, 1: 10, 2: 6}  # d = 0
    assert p_part_from_lower_half({0: 6, 1: 0}, params_for(2, 3, 2)) == {0: 6, 2: 4, 3: 1, 5: 4}  # d = 1
    want = {0: 78, 1: 24, 3: 522, 4: 4, 6: 24, 7: 76}  # (3, 7, 1): d = v_3(6) = 1, half = 3
    assert p_part_from_lower_half({0: 78, 1: 24, 2: 0}, params_for(3, 7, 1)) == want


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
    monkeypatch.setattr(carries, "digit_sums", lambda a, P: good(a, P) + (np.asarray(a) == 2 * P.k))
    with pytest.raises(MismatchError, match=r"^digit sums of n\*k, n = 1..ell-1, are \[2, 3\], not one value$"):
        min_carries(np.arange(1, 5), params_for(2, 3, 2))

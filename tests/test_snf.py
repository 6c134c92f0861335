import itertools
import math
import random
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import (
    admissible,
    drop_edge,
    field_for,
    p_local_reference,
    p_rank,
    params_for,
    snf_group_for,
)
from cyclocrit import critical_group, p_local_multiplicities, smith_normal_form, snf
from cyclocrit.abelian import AbelianGroupDesc
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.graph import laplacian
from cyclocrit.params import order_factorization, p_adic_valuation
from cyclocrit.snf import critical_group_by_local_snf, critical_group_by_snf, laplacian_p_multiplicities


def test_already_diagonal():
    factors, free = smith_normal_form([[2, 0], [0, 6]])
    assert factors == (2, 6) and free == 0


def test_unimodular():
    factors, free = smith_normal_form([[0, 1], [1, 0]])
    assert factors == (1, 1) and free == 0


def test_zero_and_rectangular():
    factors, free = smith_normal_form([[0, 0], [0, 0]])
    assert factors == () and free == 2
    factors, free = smith_normal_form([[2, 4, 6]])
    assert factors == (2,) and free == 0
    factors, free = smith_normal_form([[2], [4], [6]])
    assert factors == (2,) and free == 2


def _random_matrix(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_against_sympy_oracle():
    rng = random.Random(20240817)
    for _ in range(12):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        M = _random_matrix(rng, n, m)
        ours, free = smith_normal_form(M)
        ref = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        ref_diag = sorted(abs(ref[i, i]) for i in range(min(n, m)) if ref[i, i] != 0)
        assert sorted(ours) == ref_diag
        assert free == n - len(ours)


def test_permutation_invariance():
    rng = random.Random(7)
    M = _random_matrix(rng, 5, 5)
    base, _ = smith_normal_form(M)
    for _ in range(5):
        rows = list(range(5))
        cols = list(range(5))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = [[M[i][j] for j in cols] for i in rows]
        got, _ = smith_normal_form(shuffled)
        assert got == base


def test_minor_gcd_identity_small():
    """Invariant factors as quotients of minor gcds, on a small dense matrix."""
    rng = random.Random(99)
    M = _random_matrix(rng, 4, 4, -5, 5)
    factors, _ = smith_normal_form(M)

    def minors_gcd(size):
        g = 0
        for rows in itertools.combinations(range(4), size):
            for cols in itertools.combinations(range(4), size):
                sub = sympy.Matrix([[M[i][j] for j in cols] for i in rows])
                g = sympy.igcd(g, int(sub.det()))
        return abs(g)

    prev = 1
    for i, alpha in enumerate(factors, start=1):
        d_i = minors_gcd(i)
        assert alpha == d_i // prev
        prev = d_i


def test_spanning_tree_count_matches_minor():
    """All cofactors of a connected Laplacian equal the torsion order."""
    tab = field_for(2, 3, 2)
    L = laplacian(tab)
    minor = sympy.Matrix(L[1:, 1:].tolist())
    group = snf_group_for(2, 3, 2)
    assert int(minor.det()) == group.order() == tab.params.group_order


def test_bruteforce_group_q16():
    group = snf_group_for(2, 3, 2)
    assert group.free_rank == 1
    assert group.divisors == ((2, 2, 4), (2, 3, 1), (2, 5, 4))
    assert group.order() == 2**31


def test_bruteforce_group_q25():
    group = snf_group_for(5, 3, 1)
    assert group.order() == 2**16 * 5**22
    assert group.divisors == ((2, 1, 16), (5, 1, 10), (5, 2, 6))


def test_p_rank_basics():
    assert p_rank(np.eye(7, dtype=np.int64), 3) == 7
    tab = field_for(2, 3, 2)
    assert p_rank(laplacian(tab), 2) == 6
    tab = field_for(5, 3, 1)
    assert p_rank(laplacian(tab), 5) == 8


def test_p_rank_consistent_with_snf():
    # p-rank = number of invariant factors coprime to p
    tab = field_for(2, 3, 3)
    L = laplacian(tab)
    factors, _ = smith_normal_form(L)
    for p in (2, 3):
        coprime = sum(1 for a in factors if a % p != 0)
        assert p_rank(L, p) == coprime


def test_p_local_matches_full_snf():
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        tab = field_for(*trip)
        P = tab.params
        L = laplacian(tab)
        factors, free = smith_normal_form(L)
        for prime in {P.p, 2, 3}:
            full = Counter()
            for a in factors:
                v = 0
                while a % prime == 0:
                    a //= prime
                    v += 1
                full[v] += 1
            vp_uv = 0
            uv = P.u * P.v
            while uv % prime == 0:
                uv //= prime
                vp_uv += 1
            hist, zeros = p_local_multiplicities(L, prime, vp_uv + 5)
            assert zeros == free == 1
            assert hist == dict(full)


def test_p_local_matches_full_snf_q256():
    """The p-local mode against the full oracle at the top of its cross-check range."""
    tab = field_for(2, 3, 4)
    oracle = snf_group_for(2, 3, 4)
    for prime in (2, 3, 5):
        want = oracle.p_multiplicities(prime)
        want[0] = tab.params.q - 1 - sum(want.values())
        assert laplacian_p_multiplicities(tab, p=prime) == want


def _largest_float_precision(prime):
    """The largest B with prime^(2B) + prime^B < 2^53: one pending pivot is still exact in float64."""
    B = 1
    while prime ** (2 * B + 2) + prime ** (B + 1) < 1 << 53:
        B += 1
    return B


def test_p_local_object_dtype_path():
    """The reference's arbitrary-precision path; the kernel ends at the float64 bound."""
    tab = field_for(2, 3, 2)
    L = laplacian(tab)
    hist, zeros = p_local_reference(L, 2, 40)
    assert zeros == 1
    assert hist == {0: 6, 2: 4, 3: 1, 5: 4}
    B = _largest_float_precision(2)
    assert p_local_multiplicities(L, 2, B) == p_local_reference(L, 2, B) == (hist, 1)
    with pytest.raises(BoundExceededError):
        p_local_multiplicities(L, 2, B + 1)


def test_p_local_precision_reads_exponent_bound():
    """At (2,5,2) v_2(uv) = 10: precision 10 reads the 34 factors 2^10 as zeros, 11 reads them."""
    tab = field_for(2, 5, 2)
    P = tab.params
    assert p_adic_valuation(P.u * P.v, 2) == 10
    L = laplacian(tab)
    below = {0: 36, 1: 16, 4: 152, 6: 1, 9: 16}
    assert p_local_multiplicities(L, 2, 10) == (below, 35)
    assert p_local_multiplicities(L, 2, 11) == ({**below, 10: 34}, 1)
    assert laplacian_p_multiplicities(tab, p=2) == {**below, 10: 34}


ADMISSIBLE_Q256 = admissible(256)
BLOCK_WIDTHS = [1, 2, None]  # None keeps snf._block_width


def _patched_width(mp, width):
    if width is not None:
        mp.setattr(snf, "_block_width", lambda n, mod: width)


@lru_cache(maxsize=None)
def _laplacian_reference(trip, prime, precision):
    return p_local_reference(laplacian(field_for(*trip)), prime, precision)


@pytest.mark.parametrize("width", BLOCK_WIDTHS)
@given(P=st.sampled_from(ADMISSIBLE_Q256))
@settings(max_examples=8, deadline=None)
def test_p_local_kernel_matches_reference_on_laplacians(width, P):
    """Float64 kernel == int64 reference for every prime of the order, at the route's precision."""
    trip = (P.p, P.ell, P.t)
    L = laplacian(field_for(*trip))
    with pytest.MonkeyPatch.context() as mp:
        _patched_width(mp, width)
        for prime in order_factorization(P):
            B = p_adic_valuation(P.u * P.v, prime) + 1
            assert p_local_multiplicities(L, prime, B) == _laplacian_reference(trip, prime, B), prime


@pytest.mark.parametrize("width", BLOCK_WIDTHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_p_local_kernel_matches_reference_on_random_matrices(width, data):
    """Square and rectangular integer matrices whose entries carry random powers of the prime."""
    prime = data.draw(st.sampled_from([2, 3, 5, 7]), label="prime")
    precision = data.draw(st.integers(1, 6), label="precision")
    n, m = data.draw(st.integers(1, 9), label="rows"), data.draw(st.integers(1, 9), label="cols")
    entry = st.tuples(st.integers(-9, 9), st.integers(0, 3)).map(lambda ce: ce[0] * prime ** ce[1])
    M = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n), label="M")
    with pytest.MonkeyPatch.context() as mp:
        _patched_width(mp, width)
        assert p_local_multiplicities(M, prime, precision) == p_local_reference(M, prime, precision)


def test_p_local_memory_q1024():
    """The kernel's peak allocation is one float64 copy of L plus small buffers, not two copies."""
    tab = field_for(2, 11, 1)
    P = tab.params
    L = laplacian(tab)
    tracemalloc.start()
    try:
        p_local_multiplicities(L, 3, p_adic_valuation(P.u * P.v, 3) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * P.q**2, peak / (8 * P.q**2)


def test_p_local_route_memory_q1024():
    """laplacian_p_multiplicities peaks at or under 1.5 * 8q^2 (tracemalloc): L's residues go into L's memory.

    A fresh float64 array for them would add a second 8q^2.
    """
    tab = field_for(2, 11, 1)
    tracemalloc.start()
    try:
        laplacian_p_multiplicities(tab, p=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * tab.q**2, peak / (8 * tab.q**2)


def test_p_local_route_calls_the_kernel_once_per_prime(monkeypatch):
    """At (5, 3, 2) the route runs p_local_multiplicities once per prime of the order, in L's own memory."""
    tab, calls = field_for(5, 3, 2), []
    kernel = snf.p_local_multiplicities

    def recorded(mat, p, precision, out=None):
        calls.append((p, precision, out is not None and np.shares_memory(mat, out)))
        return kernel(mat, p, precision, out=out)

    monkeypatch.setattr(snf, "p_local_multiplicities", recorded)
    critical_group_by_local_snf(tab)
    P = tab.params
    assert calls == [(prime, p_adic_valuation(P.u * P.v, prime) + 1, True) for prime in order_factorization(P)]


def test_p_local_width_refusal_precedes_the_laplacian(monkeypatch):
    """A precision past exact float64 is refused by _block_width before laplacian() allocates L."""

    def fail(table):
        raise AssertionError("laplacian built before the float64 refusal")

    monkeypatch.setattr(snf, "laplacian", fail)
    monkeypatch.setattr(snf, "FLOAT_EXACT", 1 << 8)
    with pytest.raises(BoundExceededError, match="past exact float64"):
        laplacian_p_multiplicities(field_for(2, 3, 3))


def test_local_snf_assembly_q1024():
    tab = field_for(2, 11, 1)
    group = critical_group_by_local_snf(tab)
    assert group.divisors == (
        (2, 1, 10),
        (2, 5, 838),
        (2, 6, 3),
        (2, 10, 10),
        (2, 11, 80),
        (3, 1, 930),
    )
    assert group.order() == tab.params.group_order


def test_full_snf_bound():
    tab = field_for(2, 11, 1)
    with pytest.raises(BoundExceededError, match="full-SNF bound 256"):
        critical_group_by_snf(tab)


def test_invariant_factor_chain_roundtrip():
    group = snf_group_for(2, 3, 2)
    chain = group.invariant_factors()
    assert chain == (4, 4, 4, 4, 8, 32, 32, 32, 32)
    assert AbelianGroupDesc.from_invariant_factors(chain, free_rank=1) == group


def test_modular_snf_matches_exact_on_fixtures():
    """SNF mod 2uv equals the unreduced object-dtype SNF on every fixture with q <= 64, and at q = 81, 121."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1), (11, 3, 1)]:
        tab = field_for(*trip)
        P = tab.params
        L = laplacian(tab)
        assert smith_normal_form(L, modulus=2 * P.u * P.v) == smith_normal_form(L), trip


def test_modular_snf_against_sympy_nonsingular():
    """Modulo 2|det| (int64 and, for large entries, object dtype) the factors are sympy's."""
    rng = random.Random(314)
    seen = 0
    while seen < 16:
        n = rng.randint(2, 6)
        bound = 9 if seen % 2 else 999
        M = _random_matrix(rng, n, n, -bound, bound)
        det = int(sympy.Matrix(M).det())
        if det == 0:
            continue
        seen += 1
        ours, free = smith_normal_form(M, modulus=2 * abs(det))
        ref = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        assert sorted(ours) == sorted(abs(ref[i, i]) for i in range(n))
        assert free == 0


@pytest.mark.parametrize("D", [12, 30, 60, 210])
def test_modular_snf_small_composite_moduli(D):
    """Modulo D the factors are gcd(d_i, D) over sympy's diagonal d, less those equal to D (free rank).

    Entries carry the primes of D and others, so pivots that do not divide
    D (5 or 7 modulo 12, say) reach the divisibility scan; the exact path
    sees the same matrices.
    """
    rng = random.Random(D)
    for _ in range(30):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        M = [[rng.randint(-6, 6) * rng.choice([1, 2, 3, 4, 5, 6, 7, 10]) for _ in range(m)] for _ in range(n)]
        ref = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        diag = [abs(int(ref[i, i])) for i in range(min(n, m))]
        want = sorted(g for g in (math.gcd(d, D) for d in diag) if g != D)
        assert smith_normal_form(M, modulus=D) == (tuple(want), n - len(want)), (M, D)
        exact = sorted(d for d in diag if d)
        assert smith_normal_form(M) == (tuple(exact), n - len(exact)), M


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("D", [2, 7, 8, 6143, 6144])
def test_sym_mod_range(D, dtype):
    """_sym_mod returns the residue of each entry in (-D/2, D/2]: at even D, -D/2 maps to D/2.

    Object input reaches past 2^63, where only the exact path runs.
    """
    offset = 1 << 70 if dtype is object else 0
    X = np.array([offset + x for x in range(-3 * D, 3 * D + 1)], dtype=dtype)
    R = snf._sym_mod(X, D)
    assert R.dtype == X.dtype and R.shape == X.shape
    assert all((r - x) % D == 0 and -D < 2 * r <= D for r, x in zip(R.tolist(), X.tolist()))
    assert sorted(set(R.tolist())) == list(range(-((D - 1) // 2), D // 2 + 1))
    assert snf._sym_mod(X, None) is X


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_find_min_pivot_matches_row_major_reference(data):
    """The first entry of least nonzero |x| in M[t:, t:] in row-major order, or None on an all-zero block.

    int64 entries within +-2^30 and object entries past 2^63, drawn with
    many zeros and repeated magnitudes so ties and empty blocks are common.
    """
    big = data.draw(st.booleans(), label="object")
    bound = 1 << 70 if big else 1 << 30
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])
    entry = st.one_of(small, st.integers(-bound, bound))
    n, m = data.draw(st.integers(1, 6), label="rows"), data.draw(st.integers(1, 6), label="cols")
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n), label="M")
    t = data.draw(st.integers(0, min(n, m) - 1), label="t")
    if data.draw(st.booleans(), label="zero block"):
        for row in rows[t:]:
            row[t:] = [0] * (m - t)
    M = np.array(rows, dtype=object if big else np.int64)
    block = [(abs(rows[i][j]), i, j) for i in range(t, n) for j in range(t, m) if rows[i][j]]
    assert snf._find_min_pivot(M, t) == (min(block)[1:] if block else None)


def test_column_swap_refills_pivot_column(monkeypatch):
    """[[-4, -6], [-8, -7]]: the row clear swaps a column in and leaves 5 below the pivot, so the clear repeats.

    Column 0 clears to [-4, 0]; the row clear leaves the remainder 2 in
    row 0, swaps that column in, and its column operation also reaches row
    1, giving [[2, 0], [5, 10]].  Exact and modulo 2|det| = 40 the factors
    are sympy's (1, 20); stopping at the 5 would give (2, 10).
    """
    calls = []
    clear = snf._clear

    def recorded(M, t, modulus):
        swapped = clear(M, t, modulus)
        if M.strides[0] < M.strides[1]:  # the transpose: a row clear by column operations
            calls.append((t, swapped, bool((M[t, t + 1 :] != 0).any())))
        return swapped

    monkeypatch.setattr(snf, "_clear", recorded)
    M = [[-4, -6], [-8, -7]]
    ref = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
    assert sorted(abs(int(ref[i, i])) for i in range(2)) == [1, 20]
    for D in (None, 40):
        calls.clear()
        assert smith_normal_form(M, modulus=D) == ((1, 20), 0), D
        assert (0, True, True) in calls, D


def test_dropped_edge_message_full_snf(monkeypatch):
    """At (2,5,2) a dropped edge keeps the line sums zero and fails the full-SNF identity check."""
    L = drop_edge(laplacian(field_for(2, 5, 2)))
    assert not L.sum(axis=0).any() and not L.sum(axis=1).any()
    monkeypatch.setattr(snf, "laplacian", lambda table: drop_edge(laplacian(table)))
    with pytest.raises(MismatchError) as exc:
        critical_group(params_for(2, 5, 2), "both")
    assert str(exc.value) == "Laplacian fails zero line sums or (L-uI)(L-vI) = mu*J"


def test_p_local_int64_object_switch():
    """The reference agrees at its largest int64 precision and one digit past it (object);
    the kernel agrees at its largest float64 precision and refuses one digit past it."""
    for trip, prime in [((2, 3, 2), 2), ((2, 3, 3), 2), ((5, 3, 1), 5), ((5, 3, 1), 2)]:
        L = laplacian(field_for(*trip))
        n = L.shape[0]
        B = 1
        while n * prime ** (2 * B + 2) < 1 << 62:
            B += 1
        assert n * prime ** (2 * B) < 1 << 62 <= n * prime ** (2 * B + 2)
        want = Counter()
        for a in smith_normal_form(L)[0]:
            want[sympy.multiplicity(prime, a)] += 1
        assert p_local_reference(L, prime, B) == (dict(want), 1), trip
        assert p_local_reference(L, prime, B + 1) == (dict(want), 1), trip
        F = _largest_float_precision(prime)
        assert p_local_multiplicities(L, prime, F) == p_local_reference(L, prime, F) == (dict(want), 1), trip
        with pytest.raises(BoundExceededError):
            p_local_multiplicities(L, prime, F + 1)


@pytest.mark.parametrize("trip", [(2, 3, 2), (2, 5, 2), (17, 3, 1)])
def test_dropped_edge_is_a_mismatch(monkeypatch, trip):
    """The brute-force cross-check is not vacuous: one missing edge must be caught."""
    monkeypatch.setattr(snf, "laplacian", lambda table: drop_edge(laplacian(table)))
    with pytest.raises(MismatchError):
        critical_group(params_for(*trip), "both")


def test_dropped_edge_exits_2_under_optimize(optimized_runs):
    """The oracle's checks are raises, so python -O still reports a broken Laplacian."""
    code, _, err = optimized_runs["dropped-edge"]
    assert code == 2, err
    assert err.startswith("mismatch:")

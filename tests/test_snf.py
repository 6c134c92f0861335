import itertools
import random
from collections import Counter

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import drop_edge, field_for, p_rank, params_for, run_optimized, snf_group_for
from cyclocrit import critical_group, p_local_multiplicities, smith_normal_form, snf
from cyclocrit.abelian import AbelianGroupDesc
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.graph import laplacian
from cyclocrit.snf import critical_group_by_local_snf, critical_group_by_snf


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
    from cyclocrit.snf import laplacian_p_multiplicities

    tab = field_for(2, 3, 4)
    oracle = snf_group_for(2, 3, 4)
    for prime in (2, 3, 5):
        want = oracle.p_multiplicities(prime)
        want[0] = tab.params.q - 1 - sum(want.values())
        assert laplacian_p_multiplicities(tab, p=prime) == want


def test_p_local_object_dtype_path():
    # force the arbitrary-precision fallback with an oversized precision
    tab = field_for(2, 3, 2)
    L = laplacian(tab)
    hist, zeros = p_local_multiplicities(L, 2, 40)
    assert zeros == 1
    assert hist == {0: 6, 2: 4, 3: 1, 5: 4}


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
    with pytest.raises(BoundExceededError):
        critical_group_by_snf(tab, max_q=256)


def test_invariant_factor_chain_roundtrip():
    group = snf_group_for(2, 3, 2)
    chain = group.invariant_factors()
    assert chain == (4, 4, 4, 4, 8, 32, 32, 32, 32)
    assert AbelianGroupDesc.from_invariant_factors(chain, free_rank=1) == group


def test_modular_snf_matches_exact_on_fixtures():
    """SNF mod 2uv equals the unreduced object-dtype SNF on every fixture with q <= 64."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
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


def test_p_local_int64_object_switch():
    """Same histogram at the largest int64 precision and one digit past it (object)."""
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
        assert p_local_multiplicities(L, prime, B) == (dict(want), 1), trip
        assert p_local_multiplicities(L, prime, B + 1) == (dict(want), 1), trip


@pytest.mark.parametrize("trip", [(2, 3, 2), (2, 5, 2), (17, 3, 1)])
def test_dropped_edge_is_a_mismatch(monkeypatch, trip):
    """The brute-force cross-check is not vacuous: one missing edge must be caught."""
    monkeypatch.setattr(snf, "laplacian", lambda table: drop_edge(laplacian(table)))
    with pytest.raises(MismatchError):
        critical_group(params_for(*trip), "both")


def test_dropped_edge_exits_2_under_optimize():
    """The oracle's checks are raises, so python -O still reports a broken Laplacian."""
    script = (
        "import sys\n"
        "from conftest import drop_edge\n"
        "from cyclocrit import cli, snf\n"
        "good = snf.laplacian\n"
        "snf.laplacian = lambda table: drop_edge(good(table))\n"
        "sys.exit(cli.main(['compute', '--p', '2', '--ell', '3', '--t', '2', '--method', 'bruteforce']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("mismatch:")

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for, params_for, ring_for, run_optimized, snf_group_for
from cyclocrit import carry_count, galois, jacobi_sum, min_carries, p_part_from_carries, validate
from cyclocrit.errors import CyclocritError, MismatchError
from cyclocrit.galois import (
    GaloisRing,
    block_p_multiplicities,
    expected_block_valuations,
    laplacian_block,
    ring_divisor_valuations,
    verify_all_blocks,
    verify_block,
    verify_stickelberger,
)

# --- tuple reference: the element-at-a-time route the array route replaced ---


class TupleRing:
    """Scalar GR(p^N, e) arithmetic on coefficient tuples, the reference for the arrays."""

    def __init__(self, ring):
        self.ring, self.p, self.e, self.pN = ring, ring.p, ring.e, ring.pN
        self.precision, self.mod_poly, self.field = ring.precision, ring.mod_poly, ring.field

    def zero(self):
        return (0,) * self.e

    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def scalar(self, c):
        return (c % self.pN,) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.pN for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.pN for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.pN for x, y in zip(a, b))

    def mul(self, a, b):
        e, pN, f = self.e, self.pN, self.mod_poly
        res = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    res[i + j] += ai * bj
        for i in range(2 * e - 2, e - 1, -1):
            c = res[i] % pN
            if c:
                res[i] = 0
                for j in range(e):
                    res[i - e + j] -= c * f[j]
        return tuple(x % pN for x in res[:e])

    def pow(self, a, n):
        r = self.one()
        while n:
            if n & 1:
                r = self.mul(r, a)
            a, n = self.mul(a, a), n >> 1
        return r

    def valuation(self, a):
        """Smallest coefficient valuation; None when a = 0 mod p^precision.

        Valid because the extension is unramified: p^j * R meets the
        coefficient lattice exactly in coefficientwise multiples of p^j.
        """
        vals = []
        for c in a:
            if c:
                v = 0
                while c % self.p == 0:
                    c, v = c // self.p, v + 1
                vals.append(v)
        return min(vals, default=None)

    def divide_by_p(self, a, v):
        pv = self.p**v
        assert not any(c % pv for c in a)
        return tuple(c // pv for c in a)

    def unit_inverse(self, a, exponent):
        """Inverse of a unit modulo p^exponent by Newton lifting from the field inverse."""
        x = self.field.coeffs(self.field.inv(self.field.from_coeffs(c % self.p for c in a)))
        pe = self.p**exponent
        correct = 1
        while correct < exponent:
            x = self.mul(x, self.sub(self.scalar(2), self.mul(a, x)))
            x = tuple(c % pe for c in x)
            correct *= 2
        assert not any(c % pe for c in self.sub(self.mul(a, x), self.one()))
        return tuple(c % pe for c in x)


def jac(a, b, ring):
    """One Jacobi sum as a coefficient tuple."""
    return tuple(jacobi_sum(a, b, ring).tolist())


def jacobi_row(a, ring):
    """(ell-1, e) row [J(T^a, T^(-nk)) for n = 1..ell-1] from one coset-class gather, 0 < a < q-1."""
    return galois._jacobi_rows(ring, galois._gather_class_sums(ring, np.array([a])))[0]


def block_results(table, ring, indices):
    """(i, valuations, zeros) of each block, flattened from the batched route."""
    return [
        (i, exps, zeros)
        for batch, found in galois._block_valuations(table, ring, indices)
        for i, (exps, zeros) in zip(batch.tolist(), found)
    ]


def reference_divisor_valuations(block, tr):
    """Valuation-pivot elimination of one list-of-tuples block: the replaced route, verbatim."""
    M = [row[:] for row in block]
    n = len(M)
    avail = tr.precision
    shift = 0
    exps = []
    t = 0
    while t < n:
        vmin = None
        pos = None
        for i in range(t, n):
            for j in range(t, n):
                v = tr.valuation(M[i][j])
                if v is not None and (vmin is None or v < vmin):
                    vmin, pos = v, (i, j)
                    if v == 0:
                        break
            if vmin == 0:
                break
        if vmin is None:
            break  # remaining block vanishes at available precision
        if vmin > 0:
            if vmin >= avail:
                break
            for i in range(t, n):
                for j in range(t, n):
                    M[i][j] = tr.divide_by_p(M[i][j], vmin)
            shift += vmin
            avail -= vmin
            # rescan for a unit pivot after the shift
            pos = None
            for i in range(t, n):
                for j in range(t, n):
                    if tr.valuation(M[i][j]) == 0:
                        pos = (i, j)
                        break
                if pos:
                    break
        assert avail > 0, "ring precision exhausted during block elimination"
        i0, j0 = pos
        M[t], M[i0] = M[i0], M[t]
        for row in M:
            row[t], row[j0] = row[j0], row[t]
        pe = tr.p**avail

        def trunc(el):
            return tuple(c % pe for c in el)

        inv = tr.unit_inverse(trunc(M[t][t]), avail)
        for i in range(t + 1, n):
            factor = tr.mul(trunc(M[i][t]), inv)
            if any(c % pe for c in factor):
                for j in range(t, n):
                    M[i][j] = trunc(tr.sub(M[i][j], tr.mul(factor, trunc(M[t][j]))))
        for j in range(t + 1, n):
            factor = tr.mul(trunc(M[t][j]), inv)
            if any(c % pe for c in factor):
                for i in range(t, n):
                    M[i][j] = trunc(tr.sub(M[i][j], tr.mul(trunc(M[i][t]), factor)))
        exps.append(shift)
        t += 1
    return exps, n - t


def reference_block(table, tr, i):
    """Block i as lists of tuples, every Jacobi sum taken directly by jacobi_sum."""
    P, ring = table.params, tr.ring
    ell, k, q = P.ell, P.k, P.q
    if i == 0:
        rows = [[tr.zero()] * (ell + 1) for _ in range(ell + 1)]
        rows[1] = [tr.scalar(-1), tr.scalar(q)] + [tr.scalar(-1)] * (ell - 1)
        for j in range(1, ell):
            row = rows[1 + j]
            row[0], row[1], row[1 + j] = tr.one(), tr.scalar(-q), tr.scalar(q)
            for m in range(1, ell):
                if (j + m) % ell:
                    row[1 + (j + m) % ell] = tr.neg(jac(-(j * k), -(m * k), ring))
        return rows
    rows = []
    for m in range(ell):
        row = [tr.zero()] * ell
        row[m] = tr.scalar(q)
        for n in range(1, ell):
            row[(m + n) % ell] = tr.neg(jac(-(i + m * k), -(n * k), ring))
        rows.append(row)
    return rows


def as_tuples(block):
    return [[tuple(x) for x in row] for row in block.tolist()]


def all_blocks(table, ring):
    """Every block from the batched builder: the trivial block, then blocks 1..k-1 as one stack."""
    idx = np.arange(table.params.k)
    lookup = galois._class_sums(ring, galois._row_residues(table.params, idx).ravel())
    return [galois._blocks(table, ring, idx[:1], lookup)[0], *galois._blocks(table, ring, idx[1:], lookup)]


def test_ring_basics():
    ring = ring_for(2, 3, 2)
    tr = TupleRing(ring)
    one, zero = tr.one(), tr.zero()
    assert tr.add(one, tr.neg(one)) == zero
    assert tr.mul(one, one) == one
    assert tr.valuation(zero) is None
    assert tr.valuation(one) == 0
    assert tr.valuation(tr.scalar(2)) == 1
    assert tr.valuation(tr.scalar(ring.field.params.q)) == 4
    M = np.array([zero, one, tr.scalar(2), tr.scalar(ring.field.params.q)], dtype=ring.dtype)
    assert galois._valuations(M, ring.p, ring.precision).tolist() == [ring.precision, 0, 1, 4]


@pytest.mark.parametrize("trip", [(2, 3, 3), (5, 3, 1), (3, 5, 1), (41, 3, 1)])
def test_array_valuations_match_scalar(trip):
    """_valuations equals the scalar valuation on random elements, zero included, at any shape."""
    ring = ring_for(*trip)
    tr = TupleRing(ring)
    rng = random.Random(13)
    elems = [tr.zero()]
    for _ in range(60):
        v = rng.randrange(ring.precision)  # scale a random element by p^v to reach every valuation
        elems.append(tuple(rng.randrange(ring.pN) * ring.p**v % ring.pN for _ in range(ring.e)))
    M = np.array(elems, dtype=ring.dtype)
    want = [ring.precision if tr.valuation(a) is None else tr.valuation(a) for a in elems]
    assert galois._valuations(M, ring.p, ring.precision).tolist() == want
    assert galois._valuations(M.reshape(-1, 1, ring.e), ring.p, -1).ravel().tolist() == [
        -1 if w == ring.precision else w for w in want
    ]


@pytest.mark.parametrize("trip", [(2, 3, 3), (5, 3, 1), (3, 7, 1), (41, 3, 1)])
def test_array_mul_matches_tuple_mul(trip):
    """The broadcast convolution and reduction matrix agree with the scalar product."""
    ring = ring_for(*trip)
    tr = TupleRing(ring)
    rng = random.Random(7)
    elems = [tuple(rng.randrange(ring.pN) for _ in range(ring.e)) for _ in range(12)]
    A = np.array(elems, dtype=ring.dtype)
    prod = ring._mul(A[:, None], A[None, :])
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert tuple(prod[i, j].tolist()) == tr.mul(a, b)


def teichmuller(ring, x):
    """Teichmuller lift of the nonzero field element x, as a tuple."""
    return tuple(ring._omega_np[int(ring.field.dlog[x])].tolist())


def test_reduction_compatibility():
    ring = ring_for(5, 3, 1)
    tab = ring.field
    for x in range(1, tab.q):
        assert tab.from_coeffs(c % tab.params.p for c in teichmuller(ring, x)) == x


def test_teichmuller_multiplicative_and_idempotent():
    for trip in [(2, 3, 3), (41, 3, 1)]:  # the second in object dtype
        ring = ring_for(*trip)
        w = tuple(ring.teichmuller_generator().tolist())
        assert w == teichmuller(ring, ring.field.generator) and TupleRing(ring).pow(w, ring.field.q) == w
    ring = ring_for(5, 3, 1)
    tr = TupleRing(ring)
    tab = ring.field
    q = tab.q
    rng = random.Random(5)
    for _ in range(20):
        x = rng.randrange(1, q)
        y = rng.randrange(1, q)
        wx, wy = teichmuller(ring, x), teichmuller(ring, y)
        assert tr.mul(wx, wy) == teichmuller(ring, tab.mul(x, y))
        assert tr.pow(wx, q) == wx
        assert tr.pow(wx, q - 1) == tr.one()


def test_unit_inverse():
    ring = ring_for(2, 3, 3)
    tr = TupleRing(ring)
    rng = random.Random(11)
    units = [u for u in (tuple(rng.randrange(ring.pN) for _ in range(ring.e)) for _ in range(40))
             if tr.valuation(u) == 0]
    exps = [rng.randrange(1, ring.precision + 1) for _ in units]
    modulus = np.array([[ring.p**x] for x in exps], dtype=ring.dtype)
    inv = ring.unit_inverse(np.array(units, dtype=ring.dtype), modulus)
    for u, x, w in zip(units, exps, inv.tolist()):
        assert tuple(w) == tr.unit_inverse(u, x)
    full = ring.unit_inverse(np.array(units, dtype=ring.dtype), ring.pN)
    assert all(tr.mul(u, tuple(w)) == tr.one() for u, w in zip(units, full.tolist()))


def test_jacobi_boundary_conventions():
    ring = ring_for(2, 3, 2)
    q = ring.field.q
    tr = TupleRing(ring)
    for a in (1, 2, 7):
        assert jac(a, 0, ring) == tr.zero()
        assert jac(a, q - 1, ring) == tr.neg(tr.one())
    # J(T^-mk, T^mk) = -1 since -1 lies in the subgroup
    k = ring.field.params.k
    for m in (1, 2):
        assert jac(-m * k, m * k, ring) == tr.neg(tr.one())
    # the literal-0 convention holds element by element in a broadcast batch; J(1, 1) counts all of F_q
    batch = jacobi_sum(np.array([[0], [q - 1]]), np.array([0, 3, q - 1]), ring)
    assert batch.shape == (2, 3, ring.e)
    assert [[tuple(x) for x in row] for row in batch.tolist()] == [
        [jac(a, b, ring) for b in (0, 3, q - 1)] for a in (0, q - 1)
    ]
    assert jac(0, 0, ring) == tr.scalar(q)


def test_jacobi_reflection_symmetry():
    ring = ring_for(5, 3, 1)
    q = ring.field.q
    rng = random.Random(3)
    a = np.array([rng.randrange(1, q - 1) for _ in range(25)])
    b = np.array([rng.randrange(1, q - 1) for _ in range(25)])
    assert np.array_equal(jacobi_sum(-a, -b, ring), jacobi_sum(-b, -a, ring))
    assert all(jac(-x, -y, ring) == tuple(row) for x, y, row in zip(a, b, jacobi_sum(-a, -b, ring).tolist()))


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (3, 5, 1), (2, 5, 2), (3, 7, 1)])
def test_jacobi_row_matches_jacobi_sum(trip):
    """The coset-class row equals the direct sums J(T^a, T^(-nk)), n = 1..ell-1."""
    ring = ring_for(*trip)
    P = ring.field.params
    n = np.arange(1, P.ell)
    for a in range(1, P.q - 1):
        assert np.array_equal(jacobi_row(a, ring), jacobi_sum(a, -(n * P.k), ring)), a


def test_jacobi_row_object_contraction():
    """q = 41^2: (2e-1)*pN^2 >= 2^62, so the ring's arrays, contractions included, are object dtype."""
    tab, ring = field_for(41, 3, 1), ring_for(41, 3, 1)
    assert (2 * ring.e - 1) * ring.pN**2 >= 1 << 62
    assert ring.dtype is object and ring._row_map.dtype == object and ring._omega_np.dtype == object
    assert block_p_multiplicities(tab, ring) == p_part_from_carries(tab.params)


def test_block_count_is_a_mismatch(monkeypatch):
    """A block that loses one divisor must fail the q-1 count, under python -O too."""
    good = galois._block_valuations

    def short(table, ring, indices):
        for batch, found in good(table, ring, indices):
            yield batch, [(exps[1:] if i == 1 else exps, zeros) for i, (exps, zeros) in zip(batch, found)]

    monkeypatch.setattr(galois, "_block_valuations", short)
    with pytest.raises(MismatchError):
        block_p_multiplicities(field_for(2, 3, 2), ring_for(2, 3, 2))


def test_jacobi_valuation_example():
    ring = ring_for(2, 3, 2)
    P = ring.field.params
    assert TupleRing(ring).valuation(jac(-3, -5, ring)) == 3 == carry_count(3, 5, P)


def test_stickelberger_exhaustive_small():
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        rep = verify_stickelberger(tab, ring_for(*trip))
        q = tab.q
        assert rep.ok and rep.checked == (q - 2) * (q - 2) - (q - 2)


def test_stickelberger_sampled_mode(monkeypatch):
    """The sample is the seeded stream of admissible pairs, checked in the order drawn, batch after batch."""
    tab = field_for(3, 5, 1)
    q = tab.q
    rng, want = random.Random(7), []
    while len(want) < 300:
        a, b = rng.randrange(1, q - 1), rng.randrange(1, q - 1)
        if (a + b) % (q - 1):
            want.append((a, b))
    seen, good = [], galois.carry_count

    def recording(a, b, P):
        seen.extend(zip(a.tolist(), b.tolist()))
        return good(a, b, P)

    monkeypatch.setattr(galois, "carry_count", recording)
    monkeypatch.setattr(galois, "BATCH_BYTES", 24 * (q - 1) * 7)  # batches of 7 pairs
    rep = verify_stickelberger(tab, ring_for(3, 5, 1), exhaustive_limit=10, sample=300, seed=7)
    assert rep.ok and rep.checked == 300
    assert seen == want


@pytest.mark.parametrize("batch_bytes", [1, galois.BATCH_BYTES])
def test_stickelberger_names_first_failing_pair(monkeypatch, batch_bytes):
    """Two corrupted pairs fail as the lexicographically first, whether or not they share a batch."""
    tab, ring = field_for(2, 3, 2), ring_for(2, 3, 2)
    good = galois.carry_count

    def corrupt(a, b, P):  # one carry too many at (9, 2) and at (3, 5)
        return good(a, b, P) + ((a == 9) & (b == 2) | (a == 3) & (b == 5))

    monkeypatch.setattr(galois, "carry_count", corrupt)
    monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
    with pytest.raises(MismatchError) as err:
        verify_stickelberger(tab, ring)
    assert str(err.value) == "Stickelberger fails at (a,b)=(3,5): valuation 3 != carries 4"


def test_stickelberger_corrupt_pair_exits_2_under_optimize():
    """One wrong carry count in verify --which stickelberger at q=16: exit 2 naming the pair, under python -O."""
    code = (
        "import sys\n"
        "from cyclocrit import cli, galois\n"
        "good = galois.carry_count\n"
        "galois.carry_count = lambda a, b, P: good(a, b, P) + ((a == 7) & (b == 11))\n"
        "sys.exit(cli.main(['verify', '--p', '2', '--ell', '3', '--t', '2', '--which', 'stickelberger']))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("mismatch: Stickelberger fails at (a,b)=(7,11):") and not res.stdout


def test_block_expected_patterns_q25():
    tab = field_for(5, 3, 1)
    ring = ring_for(5, 3, 1)
    # min-carry profile over i=1..7 is six zeros and one 1 (see carries tests)
    shapes = set()
    for i in range(1, 8):
        [(exps, zeros)] = ring_divisor_valuations(laplacian_block(tab, ring, i)[None], ring)
        assert zeros == 0
        shapes.add(tuple(sorted(exps)))
        verify_block(tab, ring, i)
    assert shapes == {(0, 1, 2), (1, 1, 1)}
    [(exps, zeros)] = ring_divisor_valuations(laplacian_block(tab, ring, 0)[None], ring)
    assert sorted(exps) == [0, 0, 1] and zeros == 1
    verify_block(tab, ring, 0)


def test_block_patterns_all_fixtures():
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        rep = verify_all_blocks(tab, ring_for(*trip))
        assert rep.ok and rep.checked == tab.params.k


def test_block_check_cold_rings():
    """Forty freshly built rings each pass the block check at q=256."""
    tab = field_for(2, 3, 4)
    for _ in range(40):
        rep = verify_all_blocks(tab, GaloisRing(tab))
        assert rep.ok and rep.checked == tab.params.k


def test_ring_not_mutated_by_use():
    tab = field_for(2, 3, 2)
    ring = GaloisRing(tab)
    before = dict(vars(ring))
    snapshot = pickle.dumps(before)
    jacobi_sum(-np.arange(1, 5), -5, ring)
    jacobi_row(3, ring)
    verify_stickelberger(tab, ring)
    verify_block(tab, ring, 1)
    verify_block(tab, ring, 0)
    after = vars(ring)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert pickle.dumps(after) == snapshot


def test_three_way_multiplicity_agreement():
    """Block assembly == carry enumeration == integer SNF oracle."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        P = tab.params
        from_blocks = block_p_multiplicities(tab, ring_for(*trip))
        from_carries = p_part_from_carries(P)
        oracle = snf_group_for(*trip).p_multiplicities(P.p)
        oracle[0] = P.q - 1 - sum(oracle.values())
        assert from_blocks == from_carries == oracle


def test_blocks_larger_index_primes():
    """ell = 5 with v_p(ell-1) = 2, and ell = 7 with v_p(ell-1) = 1."""
    for trip in [(2, 5, 2), (3, 7, 1)]:
        tab = field_for(*trip)
        ring = ring_for(*trip)
        rep = verify_all_blocks(tab, ring)
        assert rep.ok and rep.checked == tab.params.k
        assert block_p_multiplicities(tab, ring) == p_part_from_carries(tab.params)


def test_expected_pattern_shapes():
    tab = field_for(3, 5, 1)
    vals, zeros = expected_block_valuations(tab, [0])
    # two unit factors, ell-3 = 2 middle copies at half = 2, then v_p(u) = 2
    assert vals.tolist() == [[0, 0, 2, 2, 2]] and zeros == 1
    vals, zeros = expected_block_valuations(tab, np.arange(1, tab.params.k))
    assert vals.shape == (tab.params.k - 1, 5) and zeros == 0
    # each row: min_carries c, ell-2 copies of half, v_p(uv) - c, sorted
    cs = min_carries(np.arange(1, 4), tab.params).tolist()
    assert vals[:3].tolist() == [sorted([c, 2, 2, 2, 4 - c]) for c in cs]
    with pytest.raises(ValueError):
        expected_block_valuations(tab, [0, 1])


def test_blocks_ell5():
    tab = field_for(3, 5, 1)
    rep = verify_all_blocks(tab, ring_for(3, 5, 1))
    assert rep.ok and rep.checked == 16


def test_ring_elimination_known_diagonals():
    ring = ring_for(2, 3, 2)
    tr = TupleRing(ring)
    Z, one = tr.zero(), tr.one()
    p2, p3 = tr.scalar(4), tr.scalar(8)
    # the first two in one stack; mixed entries: det = -16, so valuations total 4 with a unit factor
    stack = np.array([[[one, Z, Z], [Z, p3, Z], [Z, Z, p2]], [[one, p2, Z], [tr.scalar(3), p3, p2], [Z, Z, p2]]])
    assert ring_divisor_valuations(stack, ring) == [([0, 2, 3], 0), ([0, 2, 2], 0)]
    assert ring_divisor_valuations(np.array([[[p2, Z], [Z, Z]]]), ring) == [([2], 1)]
    assert ring_divisor_valuations(np.zeros((1, 2, 2, ring.e), dtype=np.int64), ring) == [([], 2)]


BLOCK_REFERENCE_FIXTURES = [(2, 3, 4), (5, 3, 2), (3, 5, 1), (2, 5, 2), (3, 7, 1), (41, 3, 1)]


@pytest.mark.parametrize("trip", BLOCK_REFERENCE_FIXTURES)
def test_batched_blocks_match_tuple_reference(trip):
    """Every block, and its (valuations, zeros), equals the tuple route's.

    (41, 3, 1) runs in object dtype.  Blocks are compared entry by entry
    with blocks built from direct Jacobi sums, so the orbit-permuted class
    sums are checked too.
    """
    tab, ring = field_for(*trip), ring_for(*trip)
    tr = TupleRing(ring)
    found = block_results(tab, ring, range(tab.params.k))
    assert [i for i, _, _ in found] == list(range(tab.params.k))
    for (i, exps, zeros), block in zip(found, all_blocks(tab, ring)):
        ref = reference_block(tab, tr, i)
        assert as_tuples(block) == ref, i
        assert (exps, zeros) == reference_divisor_valuations(ref, tr), i


def _orbits(P):
    """Orbits of r -> p*r on 0..q-2, by walking each one."""
    seen, orbits = set(), []
    for r in range(P.q - 1):
        if r not in seen:
            orbit = {r * P.p**j % (P.q - 1) for j in range(P.ext_degree)}
            seen |= orbit
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("trip", [(2, 3, 4), (5, 3, 2), (3, 7, 1)])
def test_one_gather_per_orbit(monkeypatch, trip):
    """The block route gathers once per Frobenius orbit, plus a sample of 8 checked directly."""
    tab, ring = field_for(*trip), ring_for(*trip)
    sizes = []
    good = galois._gather_class_sums

    def counting(ring, rs):
        sizes.append(len(rs))
        return good(ring, rs)

    monkeypatch.setattr(galois, "_gather_class_sums", counting)
    verify_all_blocks(tab, ring)
    assert sizes == [len(_orbits(tab.params)), galois.ORBIT_SAMPLE]


def test_orbit_identity_is_checked(monkeypatch):
    """Class sums taken from a wrong representative fail the direct sample."""
    tab, ring = field_for(2, 3, 4), ring_for(2, 3, 4)
    good = galois._gather_class_sums
    calls = []

    def first_call_off(ring, rs):
        out = good(ring, rs)
        if not calls:
            out = np.roll(out, 1, axis=1)  # each representative's classes rotated
        calls.append(rs)
        return out

    monkeypatch.setattr(galois, "_gather_class_sums", first_call_off)
    with pytest.raises(MismatchError, match="Frobenius orbit representative"):
        verify_all_blocks(tab, ring)


@pytest.mark.parametrize("batch_bytes", [1, galois.BATCH_BYTES])
def test_corrupt_block_names_lowest_index(monkeypatch, batch_bytes):
    """Zeroed blocks 7 and 30 fail as block 7, whether or not they share a batch."""
    tab, ring = field_for(2, 3, 4), ring_for(2, 3, 4)
    good = galois._blocks

    def corrupt(table, ring, idx, lookup):
        out = good(table, ring, idx, lookup)
        out[np.isin(idx, (30, 7))] = 0
        return out

    monkeypatch.setattr(galois, "_blocks", corrupt)
    monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
    with pytest.raises(MismatchError) as err:
        verify_all_blocks(tab, ring)
    want, _ = expected_block_valuations(tab, [7])
    assert str(err.value) == f"block 7: local Smith valuations [] (zeros 3) != expected {want[0].tolist()} (zeros 0)"


def test_block_index_out_of_range():
    tab, ring = field_for(2, 3, 2), ring_for(2, 3, 2)
    for i in (-1, tab.params.k):
        with pytest.raises(ValueError):
            laplacian_block(tab, ring, i)
        with pytest.raises(ValueError):
            verify_block(tab, ring, i)


def test_wrong_min_carries_exits_2_under_optimize():
    """A min_carries off by one sets a wrong expected pattern: exit 2 with python -O too."""
    code = (
        "import sys\n"
        "from cyclocrit import cli, galois\n"
        "good = galois.min_carries\n"
        "galois.min_carries = lambda idx, P: good(idx, P) + 1\n"
        "sys.exit(cli.main(['verify', '--p', '2', '--ell', '3', '--t', '2', '--which', 'blocks']))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("mismatch: block 1: local Smith valuations") and not res.stdout


def _admissible(max_q):
    out = []
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        for ell in (3, 5, 7, 11):
            t = 1
            while p ** ((ell - 1) * t) <= max_q:
                try:
                    out.append(validate(p, ell, t))
                except CyclocritError:
                    pass
                t += 1
    return out


ADMISSIBLE_Q1024 = _admissible(1024)


@given(st.sampled_from(ADMISSIBLE_Q1024))
@settings(max_examples=20, deadline=None)
def test_batched_p_part_differential(P):
    """Block p-part == carry p-part for q <= 1024, and block by block == tuple route for q <= 256."""
    tab, ring = field_for(P.p, P.ell, P.t), ring_for(P.p, P.ell, P.t)
    assert block_p_multiplicities(tab, ring) == p_part_from_carries(P)
    if P.q <= 256:
        tr = TupleRing(ring)
        for i, exps, zeros in block_results(tab, ring, range(P.k)):
            assert (exps, zeros) == reference_divisor_valuations(reference_block(tab, tr, i), tr), i

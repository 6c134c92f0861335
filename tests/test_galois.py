import math
import pickle
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    admissible,
    admissible_up_to_table_bound,
    blocks_reference,
    class_sums_reference,
    field_for,
    jacobi_rows_reference,
    params_for,
    ring_for,
    snf_group_for,
)
from cyclocrit import (
    build_field,
    carries,
    carry_count,
    cli,
    field,
    galois,
    jacobi_sum,
    laplacian_p_multiplicities,
    min_carries,
    p_part_from_carries,
    validate,
)
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.field import DEFAULT_MAX_Q
from cyclocrit.galois import (
    GaloisRing,
    block_p_multiplicities,
    expected_block_valuations,
    ring_divisor_valuations,
    verify_all_blocks,
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
        tab = self.field
        inv = int(tab.antilog[-tab.dlog[sum(c % self.p * self.p**i for i, c in enumerate(a))] % (tab.q - 1)])
        x = tuple(inv // self.p**i % self.p for i in range(self.e))
        pe = self.p**exponent
        correct = 1
        while correct < exponent:
            x = self.mul(x, self.sub(self.scalar(2), self.mul(a, x)))
            x = tuple(c % pe for c in x)
            correct *= 2
        assert not any(c % pe for c in self.sub(self.mul(a, x), self.one()))
        return tuple(c % pe for c in x)


def jac(a, b, ring):
    """One Jacobi sum, a constant of the ring, as a coefficient tuple."""
    return TupleRing(ring).scalar(int(jacobi_sum(a, b, ring)))


def route_rows(ring, idx):
    """(len(idx) * ell, ell-1) rows J(T^r, T^(-nk)), r = -(i + m*k), n = 1..ell-1, read off the route's blocks i > 0."""
    ell = ring.field.params.ell
    m, n = np.arange(ell)[:, None], np.arange(1, ell)
    blocks = galois._blocks(ring, np.asarray(idx), galois._x_groups(ring))
    return (-blocks[:, m, (m + n) % ell] % ring.pN).reshape(-1, ell - 1)


def laplacian_block(ring, i):
    """(n, n) array of ell*L on the i-th isotypic component (0 is the trivial one)."""
    return galois._blocks(ring, np.array([i]), galois._x_groups(ring))[0]


def verify_block(table, ring, i):
    """Block i alone, eliminated as the block route does, has its closed-form pattern."""
    [(batch, [(exps, zeros)])] = galois._block_valuations(ring, [i], galois._x_groups(ring))
    want, want_zeros = expected_block_valuations(table, batch)
    assert (sorted(exps), zeros) == (want[0].tolist(), want_zeros), i


def block_results(ring, indices):
    """(i, valuations, zeros) of each block, flattened from the batched route."""
    return [
        (i, exps, zeros)
        for batch, found in galois._block_valuations(ring, indices, galois._x_groups(ring))
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


def as_tuples(block, tr):
    return [[tr.scalar(x) for x in row] for row in block.tolist()]


def all_blocks(table, ring):
    """Every block from the batched builder: the trivial block, then blocks 1..k-1 as one stack."""
    idx, groups = np.arange(table.params.k), galois._x_groups(ring)
    return [galois._blocks(ring, idx[:1], groups)[0], *galois._blocks(ring, idx[1:], groups)]


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
    P = ring.field.params
    assert ring.precision == P.ext_degree + P.d + 1 == P.vp(P.u * P.v) + 1 == 6
    M = np.array([0, 1, 2, ring.field.params.q], dtype=np.int64)
    assert galois._valuations(M, ring.p, ring.precision).tolist() == [ring.precision, 0, 1, 4]


@pytest.mark.parametrize("trip", [(2, 3, 3), (5, 3, 1), (3, 5, 1), (41, 3, 1)])
def test_array_valuations_match_scalar(trip):
    """_valuations equals the tuple valuation on random constants mod p^N, zero included, at any shape."""
    ring = ring_for(*trip)
    tr = TupleRing(ring)
    rng = random.Random(13)
    elems = [0]
    for _ in range(60):
        v = rng.randrange(ring.precision)  # scale a random constant by p^v to reach every valuation
        elems.append(rng.randrange(ring.pN) * ring.p**v % ring.pN)
    M = np.array(elems, dtype=np.int64)
    want = [ring.precision if tr.valuation(tr.scalar(a)) is None else tr.valuation(tr.scalar(a)) for a in elems]
    assert galois._valuations(M, ring.p, ring.precision).tolist() == want
    assert galois._valuations(M.reshape(-1, 1, 1), ring.p, -1).ravel().tolist() == [
        -1 if w == ring.precision else w for w in want
    ]


@pytest.mark.parametrize("trip", [(2, 3, 3), (5, 3, 1), (3, 7, 1), (41, 3, 1), (2, 3, 4)])
def test_array_mul_matches_tuple_mul(trip):
    """a @ T(b) agrees with the scalar product at broadcast shapes, up to p = 41."""
    ring = ring_for(*trip)
    tr = TupleRing(ring)
    rng = random.Random(7)
    elems = [tuple(rng.randrange(ring.pN) for _ in range(ring.e)) for _ in range(12)]
    A = np.array(elems, dtype=np.int64)

    def mul(a, b):
        return field._mul(a, field._times_matrix(b, ring._times, ring.pN), ring.pN)

    prod = mul(A[:, None], A[None, :])
    assert prod.dtype == np.int64
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert tuple(prod[i, j].tolist()) == tr.mul(a, b)
    assert np.array_equal(mul(A[:3, None], A[3:7]), prod[:3, 3:7])  # (3, 1, e) times (4, e)
    assert np.array_equal(mul(A[0], A[:, None]), prod[:, :1])  # (e,) times (12, 1, e)


def test_int64_bound_holds_up_to_table_bound():
    """All 48 admissible triples with q <= 2^16 get the precision v_p(uv) + 1 inside the int64 bound."""
    triples = admissible_up_to_table_bound()
    assert len(triples) == 48
    for P in triples:
        assert galois._precision(P) == P.vp(P.u * P.v) + 1, (P.p, P.ell, P.t)


def test_int64_bound_refuses_before_any_table():
    """ell*e*p^(2N) < 2^62 holds at p = 953 and fails at 971, the next prime 2 mod 3; the ring
    refuses the latter from its Params alone, before it reads a table."""
    assert galois._precision(validate(953, 3, 1)) == 3
    with pytest.raises(BoundExceededError, match="2\\^62"):
        GaloisRing(SimpleNamespace(params=validate(971, 3, 1)))


@pytest.mark.parametrize("trip", [(2, 3, 2), (41, 3, 1), (2, 13, 1)])
def test_precision_one_short_fails_block_check(monkeypatch, trip):
    """At precision v_p(uv), block 1's divisor p^v_p(uv) reads as a zero, so the block check raises."""
    monkeypatch.setattr(galois, "_precision", lambda P: P.ext_degree + P.d)
    with pytest.raises(MismatchError, match="^block 1: local Smith valuations"):
        verify_all_blocks(GaloisRing(field_for(*trip)))


def teichmuller(omega, ring, x):
    """Teichmuller lift of the nonzero field element x, as a tuple, read from the ring's omega_table()."""
    return tuple(omega[ring.field.dlog[x]].tolist())


def test_reduction_compatibility():
    ring = ring_for(5, 3, 1)
    tab = ring.field
    xs = np.arange(1, tab.q)
    assert np.array_equal(ring.omega_table()[tab.dlog[xs]] % ring.p @ ring.p ** np.arange(ring.e), xs)


def test_teichmuller_multiplicative_and_idempotent():
    for trip in [(2, 3, 3), (41, 3, 1)]:
        ring = ring_for(*trip)
        omega = ring.omega_table()
        w = tuple(omega[1].tolist())
        assert w == teichmuller(omega, ring, ring.field.generator) and TupleRing(ring).pow(w, ring.field.q) == w
    ring = ring_for(5, 3, 1)
    tr, omega = TupleRing(ring), ring.omega_table()
    tab = ring.field
    q = tab.q
    rng = random.Random(5)
    for _ in range(20):
        x = rng.randrange(1, q)
        y = rng.randrange(1, q)
        wx, wy = teichmuller(omega, ring, x), teichmuller(omega, ring, y)
        assert tr.mul(wx, wy) == teichmuller(omega, ring, tab.antilog[(tab.dlog[x] + tab.dlog[y]) % (q - 1)])
        assert tr.pow(wx, q) == wx
        assert tr.pow(wx, q - 1) == tr.one()


def fixed_point_lift(ring):
    """The Teichmuller generator as the fixed point of y -> y^q from the lifted field generator, in TupleRing."""
    tr, q = TupleRing(ring), ring.field.q
    y = tuple(ring.field.generator // ring.p**i % ring.p for i in range(ring.e))
    while (z := tr.pow(y, q)) != y:
        y = z
    return y


@pytest.mark.parametrize("trip", [(2, 3, 3), (41, 3, 1), (2, 13, 1), (251, 3, 1)])
def test_lift_to_q_squared_is_the_fixed_point(trip):
    """omega = x^(q^2) is the lift that x -> x^q fixes, at p = 2 (where one q-th power is short) and odd p."""
    ring = ring_for(*trip)
    assert tuple(ring.omega_table()[1].tolist()) == fixed_point_lift(ring)


@pytest.mark.parametrize(
    "trip, exponent",
    [((2, 3, 2), math.isqrt), ((2, 5, 2), math.isqrt), ((5, 3, 1), lambda n: 1), ((11, 3, 1), lambda n: 1)],
    ids=["x^q-2-3-2", "x^q-2-5-2", "x-5-3-1", "x-11-3-1"],
)
def test_short_lift_fails_order_check(monkeypatch, trip, exponent):
    """x^q falls short of the lift at p = 2, and x itself at odd p: omega^(q-1) = 1 then fails."""
    power = galois._power
    monkeypatch.setattr(galois, "_power", lambda T, n, m: power(T, exponent(n), m))
    with pytest.raises(MismatchError, match="order q-1"):
        GaloisRing(field_for(*trip))


@pytest.mark.parametrize("batch_bytes", [1, 8 * 6 * 5])
@pytest.mark.parametrize("table", ["antilog", "omega"])
def test_power_chunks_are_successive_powers(monkeypatch, table, batch_bytes):
    """field._powers fills the antilog table and the ring's powers of omega at (2, 3, 3), e = 6, in chunks of
    1 and of 4 rows (63 = 15*4 + 3, so the last chunk is short): row j is b^j, then b^63 = 1 is certified.

    The reference multiplies by b one row at a time in TupleRing: by omega, or for the antilog table by the
    coefficientwise lift of the generator, whose powers read mod p are the generator's.  The certificate
    still runs after the last chunk: a reducible modulus fails it in the field, a short lift in the ring.
    """
    tr = TupleRing(ring_for(2, 3, 3))  # built before the patches
    monkeypatch.setattr(field, "BATCH_BYTES", batch_bytes)
    module, chunks = (field if table == "antilog" else galois), []
    fill = module._powers

    def recorded(*args):
        for chunk in fill(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(module, "_powers", recorded)
    if table == "antilog":
        tab = build_field(params_for(2, 3, 3))
        b, got = tuple(field._digits(tab.generator, 2, 6).tolist()), tab.antilog
    else:
        ring = GaloisRing(field_for(2, 3, 3))
        got = np.concatenate(chunks)
        b = tuple(got[1].tolist())
        assert np.array_equal(ring._kappa, got[:, 0])
    assert [len(chunk) for chunk in chunks] == ([1] * 63 if batch_bytes == 1 else [4] * 15 + [3])
    want = [tr.one()]
    for _ in range(62):
        want.append(tr.mul(want[-1], b))
    if table == "antilog":
        assert got.tolist() == [sum(c % 2 << i for i, c in enumerate(row)) for row in want]
        monkeypatch.setattr(field, "smallest_irreducible", lambda p, e: (1, 0, 0, 0, 0, 0))  # x^6 + 1 = (x^3 + 1)^2
        with pytest.raises(MismatchError, match=r"generator\^63 is not 1: .* not irreducible"):
            build_field(params_for(2, 3, 3))
    else:
        assert got.tolist() == [list(row) for row in want]
        power = galois._power
        monkeypatch.setattr(galois, "_power", lambda T, n, m: power(T, math.isqrt(n), m))
        with pytest.raises(MismatchError, match="order q-1"):
            GaloisRing(field_for(2, 3, 3))


def test_ring_build_memory():
    """GaloisRing at (2, 3, 8) peaks under 5 MB (tracemalloc): the powers of omega come in chunks, only column 0 kept.

    Building the whole (q-1, e) int64 table there peaked at 12.6 MB.
    """
    tab = field_for(2, 3, 8)
    tracemalloc.start()
    try:
        GaloisRing(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


@pytest.mark.parametrize("trip, bound", [((2, 13, 1), 660_000), ((2, 3, 6), 420_000)])
def test_block_route_memory(trip, bound):
    """verify_all_blocks peaks no higher than the class-count route it replaced (tracemalloc, ring built first).

    That route peaked at 0.657 MB at (2, 13, 1) and 0.412 MB at (2, 3, 6), one exponent's ell*(q-1) float64
    counts at a time; the grouped gathers read 0.557 and 0.383 MB.
    """
    ring = ring_for(*trip)
    tracemalloc.start()
    try:
        verify_all_blocks(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


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
    assert batch.shape == (2, 3)
    assert [[tr.scalar(x) for x in row] for row in batch.tolist()] == [
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
    sums = jacobi_sum(-a, -b, ring).tolist()
    assert all(jac(-x, -y, ring) == TupleRing(ring).scalar(z) for x, y, z in zip(a, b, sums))


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (3, 5, 1), (2, 5, 2), (3, 7, 1)])
def test_jacobi_row_matches_jacobi_sum(trip):
    """Rows J(T^r, T^(-nk)), n = 1..ell-1, equal the direct sums: the reference's at every r, the route's in every block i > 0."""
    ring = ring_for(*trip)
    P = ring.field.params
    n, rs, i = np.arange(1, P.ell), np.arange(1, P.q - 1), np.arange(1, P.k)
    assert np.array_equal(jacobi_rows_reference(ring, rs), jacobi_sum(rs[:, None], -(n * P.k), ring))
    rs = -(i[:, None] + np.arange(P.ell) * P.k).reshape(-1, 1)
    assert np.array_equal(route_rows(ring, i), jacobi_sum(rs, -(n * P.k), ring))


def one_minus(tab, x):
    """Index of 1 - x in F_q, digit by digit: negate every digit mod p, then add 1 to digit 0."""
    p, e = tab.params.p, tab.params.ext_degree
    digits = [-(x // p**i) % p for i in range(e)]
    digits[0] = (digits[0] + 1) % p
    return sum(d * p**i for i, d in enumerate(digits))


def jacobi_reference(ring, omega, a, b):
    """J(T^a, T^b) from the definition: T^a(x) T^b(1-x) over every x in F_q, multiplied in TupleRing.

    T^n(y) is row n*dlog(y) mod q-1 of omega (the int64 omega_table) for
    y != 0; at y = 0 it is 1 for a literal n = 0 and 0 otherwise.  No
    bincount, no table product, no dlog(1-x) table of the ring.
    """
    tr, tab = TupleRing(ring), ring.field
    q = tab.q

    def char(n, y):
        if y == 0:
            return tr.one() if n == 0 else tr.zero()
        return tuple(omega[n * int(tab.dlog[y]) % (q - 1)].tolist())

    total = tr.zero()
    for x in range(q):
        total = tr.add(total, tr.mul(char(a, x), char(b, one_minus(tab, x))))
    return total


@pytest.mark.parametrize("trip, sample", [((2, 3, 2), None), ((5, 3, 1), 60), ((3, 5, 1), 60)])
def test_jacobi_sum_matches_definition(monkeypatch, trip, sample):
    """jacobi_sum equals the sum from the definition, literal-0 and q-1 exponents included.

    Every pair of exponents 0..q-1 at (2, 3, 2); elsewhere a seeded sample
    of exponents in -(q-1)..q-1 plus the boundary pairs.  Once in one batch
    and once with one pair per batch.  The definition's sums are whole ring
    elements, so this also checks that they are constants.
    """
    ring = ring_for(*trip)
    q, omega, tr = ring.field.q, ring.omega_table(), TupleRing(ring)
    if sample is None:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(11)
        pairs = [(0, 0), (0, 3), (3, 0), (q - 1, 3), (3, q - 1), (q - 1, q - 1)]
        pairs += [(rng.randrange(-(q - 1), q), rng.randrange(-(q - 1), q)) for _ in range(sample)]
    a, b = np.array(pairs).T
    want = [jacobi_reference(ring, omega, x, y) for x, y in pairs]
    for batch_bytes in (galois.BATCH_BYTES, 1):
        monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
        assert [tr.scalar(x) for x in jacobi_sum(a, b, ring).tolist()] == want


@pytest.mark.parametrize("trip", [(2, 3, 2), (3, 5, 1)])
def test_class_sums_match_definition(monkeypatch, trip):
    """class_sums_reference[r, c, m] is coefficient 0 of S_c(r) zeta^(-m), S_c(r) being T^r(x) summed in TupleRing
    over the x not in {0, 1} with dlog(1-x) = c mod ell, for every exponent r; once in one batch and once one
    exponent per batch."""
    ring = ring_for(*trip)
    tr, tab, omega = TupleRing(ring), ring.field, ring.omega_table()
    q, ell, k = tab.q, tab.params.ell, tab.params.k
    sums = [[tr.zero()] * ell for _ in range(q - 1)]
    for x in range(2, q):
        c = int(tab.dlog[one_minus(tab, x)]) % ell
        for r in range(q - 1):
            sums[r][c] = tr.add(sums[r][c], tuple(omega[r * int(tab.dlog[x]) % (q - 1)].tolist()))
    zeta = [tuple(omega[-m * k % (q - 1)].tolist()) for m in range(ell)]
    want = [[[tr.mul(s, z)[0] for z in zeta] for s in row] for row in sums]
    for batch_bytes in (galois.BATCH_BYTES, 1):
        monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
        assert class_sums_reference(ring, np.arange(q - 1)).tolist() == want


def full_jacobi_sums(ring, omega, a, b):
    """(len(a), e) Jacobi sums J(T^a, T^b), 0 < a, b < q-1, with all e coefficients.

    The counts of a*dlog(x) + b*dlog(1-x) over the x not in {0, 1} times the
    full omega_table(), 1 - x taken digit by digit: no kappa, no class sums.
    The product is float64, exact as its sums stay below (q-2) p^N < 2^47.
    """
    tab, p, e = ring.field, ring.p, ring.e
    q, x = tab.q, np.arange(2, tab.q)
    digits = -(x[:, None] // p ** np.arange(e)) % p
    digits[:, 0] = (digits[:, 0] + 1) % p
    dx, d1mx = tab.dlog[x], tab.dlog[digits @ p ** np.arange(e)]
    out = []
    for lo in range(0, len(a), 64):
        exps = (np.outer(a[lo : lo + 64], dx) + np.outer(b[lo : lo + 64], d1mx)) % (q - 1)
        exps += np.arange(len(exps))[:, None] * (q - 1)
        counts = np.bincount(exps.ravel(), minlength=exps.size // (q - 2) * (q - 1)).reshape(-1, q - 1)
        out.append((counts @ omega.astype(np.float64)).astype(np.int64) % ring.pN)
    return np.concatenate(out)


@pytest.mark.parametrize(
    "P", [P for P in admissible_up_to_table_bound() if P.q <= 4096], ids=lambda P: f"{P.p}-{P.ell}-{P.t}"
)
def test_jacobi_sums_are_constants(P):
    """The premise of the scalar route: Jacobi sums, taken with every coefficient, lie in Z/p^N.

    On 200 seeded pairs and on the rows of block 0 and of the least block of
    every Frobenius orbit, coefficients 1..e-1 are 0 and coefficient 0 equals
    jacobi_sum and the rows of the class-sum reference (equal to the block
    route's by test_blocks_match_class_sum_reference).
    """
    ring, q, ell, k = ring_for(P.p, P.ell, P.t), P.q, P.ell, P.k
    omega = ring.omega_table()
    rng = np.random.default_rng(P.q)
    a, b = rng.integers(1, q - 1, size=(2, 200))
    full = full_jacobi_sums(ring, omega, a, b)
    assert not full[:, 1:].any() and np.array_equal(full[:, 0], jacobi_sum(a, b, ring))
    rs = -(np.array([0] + [min(orbit) for orbit in _block_orbits(P)])[:, None] + np.arange(ell) * k) % (q - 1)
    n = np.arange(1, ell)
    full = full_jacobi_sums(ring, omega, np.repeat(rs.ravel(), ell - 1), np.tile(-n * k % (q - 1), rs.size))
    assert not full[:, 1:].any()
    rows = jacobi_rows_reference(ring, rs.ravel())
    assert np.array_equal(full[:, 0].reshape(rows.shape), rows)


@pytest.mark.parametrize(
    "P", [P for P in admissible_up_to_table_bound() if P.q <= 4096], ids=lambda P: f"{P.p}-{P.ell}-{P.t}"
)
def test_blocks_match_class_sum_reference(monkeypatch, P):
    """Blocks from one grouped gather each equal the count-and-multiply reference's: block 0 and every orbit's least.

    (2, 3, 2) has an empty group (c, tau) = (0, 0); ell = 13 at q = 4096 gathers each block in two chunks of x,
    and ell = 3 there two blocks a chunk.  Up to q = 256 again with chunks of 5 x, which split groups.
    """
    ring = ring_for(P.p, P.ell, P.t)
    reps = np.array(sorted(min(orbit) for orbit in _block_orbits(P)))
    for batch_bytes in (galois.BATCH_BYTES, 8 * P.ell * 5)[: 1 + (P.q <= 256)]:
        monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
        for idx in (np.array([0]), reps):
            got = galois._blocks(ring, idx, galois._x_groups(ring))
            assert np.array_equal(got, blocks_reference(ring, idx)), (batch_bytes, idx)


def test_ring_keeps_no_coefficient_table():
    """The ring's arrays hold under 4 MB at (2, 3, 8), and none is a (q-1, e) or (e, q-1) table of powers."""
    ring = ring_for(2, 3, 8)
    q, e = ring.field.q, ring.e
    arrays = [value for value in vars(ring).values() if isinstance(value, np.ndarray)]
    assert not {a.shape for a in arrays} & {(q - 1, e), (e, q - 1)}
    assert sum(a.nbytes for a in arrays) < 4_000_000


def test_count_sums_exact_in_table_dtype():
    """Every sum of kappa (jacobi_sum) or _K (_group_sums), at most (q-2)(p^N-1), is exact in their dtype.

    For every admissible q <= DEFAULT_MAX_Q, and for any q up to that bound
    from _precision's int64 bound p^N < 2^31 alone: raising the field's q
    bound past 2^22, or a narrower table, fails here before it rounds.
    """
    ring = ring_for(2, 3, 2)
    assert ring._kappa.dtype == ring._K.dtype
    exact = 2 ** (np.finfo(ring._kappa.dtype).nmant + 1)
    assert (DEFAULT_MAX_Q - 2) * ((1 << 31) - 1) < exact
    for P in admissible(DEFAULT_MAX_Q):
        assert (P.q - 2) * (P.p ** galois._precision(P) - 1) < exact, (P.p, P.ell, P.t)


def test_block_count_is_a_mismatch(monkeypatch):
    """A block that loses one divisor must fail the q-1 count, under python -O too."""
    good = galois._block_valuations

    def short(ring, indices, groups):
        for batch, found in good(ring, indices, groups):
            yield batch, [(exps[1:] if i == 1 else exps, zeros) for i, (exps, zeros) in zip(batch, found)]

    monkeypatch.setattr(galois, "_block_valuations", short)
    with pytest.raises(MismatchError):
        block_p_multiplicities(ring_for(2, 3, 2))


def test_jacobi_valuation_example():
    ring = ring_for(2, 3, 2)
    P = ring.field.params
    assert TupleRing(ring).valuation(jac(-3, -5, ring)) == 3 == carry_count(3, 5, P)


def test_stickelberger_exhaustive_small():
    """Every admissible pair on each of the seven triples with q <= STICKELBERGER_EXHAUSTIVE_Q."""
    triples = admissible(galois.STICKELBERGER_EXHAUSTIVE_Q)
    assert len(triples) == 7
    for P in triples:
        assert verify_stickelberger(ring_for(P.p, P.ell, P.t)) == (P.q - 2) ** 2 - (P.q - 2)


def tile_tables(ring):
    """The exhaustive check's float64 tables from TupleRing: coefficient 0 of omega^s X^j at (s, j), and omega^s."""
    tr, omega = TupleRing(ring), ring.omega_table()
    X = [tuple(int(i == j) for i in range(ring.e)) for j in range(ring.e)]
    low = [[tr.mul(tuple(w), x)[0] for x in X] for w in omega.tolist()]
    return np.array(low, dtype=np.float64), omega.astype(np.float64)


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (3, 5, 1), (11, 3, 1), (2, 3, 3), (2, 3, 4)])
def test_jacobi_tiles_match_jacobi_sum(trip):
    """_jacobi_chunk equals jacobi_sum(-a, -b).

    Every pair up to q = 121, in chunks of 5 rows summed over batches of 5
    elements x, so the last batch is short (q-2 = 14, 23, 79, 119, 62); at
    q = 256 every 9th row in one chunk, with the check's own batch of 8
    (254 = 31*8 + 6).  The tables come from TupleRing products, not from
    the check's own table product.
    """
    ring = ring_for(*trip)
    q, tables = ring.field.q, tile_tables(ring)
    ex = np.arange(1, q - 1)
    if q < 256:
        n, chunks = 5, [ex[lo : lo + 5] for lo in range(0, q - 2, 5)]
    else:
        n, chunks = galois.BATCH_BYTES // (16 * ring.e * (q - 2)), [ex[::9]]
        assert n == 8
    for a in chunks:
        assert np.array_equal(galois._jacobi_chunk(ring, a, n, tables), jacobi_sum(-a[:, None], -ex, ring)), a


def test_stickelberger_memory():
    """verify_stickelberger peaks at or under 0.75 MB (tracemalloc) on every triple with q <= 256."""
    for P in admissible(galois.STICKELBERGER_EXHAUSTIVE_Q):
        ring = ring_for(P.p, P.ell, P.t)
        tracemalloc.start()
        try:
            verify_stickelberger(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 750_000, (P.p, P.ell, P.t, peak)


def test_stickelberger_sampled_mode(monkeypatch):
    """The sample is the seeded stream of admissible pairs, checked in the order drawn, batch after batch.

    jacobi_sum sums them in batches of 7 pairs by kappa gathers alone: no block's groups are summed.
    """
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

    def no_groups(*args):
        raise AssertionError("the sampled route sums kappa directly, without grouped block sums")

    monkeypatch.setattr(galois, "carry_count", recording)
    monkeypatch.setattr(galois, "_group_sums", no_groups)
    monkeypatch.setattr(galois, "BATCH_BYTES", 24 * (q - 1) * 7)  # batches of 7 pairs
    monkeypatch.setattr(galois, "STICKELBERGER_EXHAUSTIVE_Q", 10)
    monkeypatch.setattr(galois, "STICKELBERGER_SAMPLE", 300)
    assert verify_stickelberger(ring_for(3, 5, 1), seed=7) == 300
    assert seen == want


@pytest.mark.parametrize("batch_bytes", [1, galois.BATCH_BYTES])
def test_stickelberger_names_first_failing_pair(monkeypatch, batch_bytes):
    """Two corrupted pairs fail as the lexicographically first, whether or not they share a batch."""
    ring = ring_for(2, 3, 2)
    good = galois.carry_count

    def corrupt(a, b, P):  # one carry too many at (9, 2) and at (3, 5)
        return good(a, b, P) + ((a == 9) & (b == 2) | (a == 3) & (b == 5))

    monkeypatch.setattr(galois, "carry_count", corrupt)
    monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
    with pytest.raises(MismatchError) as err:
        verify_stickelberger(ring)
    assert str(err.value) == "Stickelberger fails at (a,b)=(3,5): valuation 3 != carries 4"


@pytest.mark.parametrize("batch_bytes", [1, 16 * 62 * 4, galois.BATCH_BYTES])
def test_stickelberger_names_first_zeroed_jacobi_sum(monkeypatch, batch_bytes):
    """Two zeroed Jacobi sums, (2, 50) and (3, 7), fail as the lexicographically first.

    At q = 64 the default chunk holds every row a and its first check slice
    44 of them, so both sit in one slice; 16*62*4 bytes give chunks of 4
    rows checked one row a slice, so they sit in one chunk but two slices;
    with BATCH_BYTES = 1 every row is a chunk of its own.
    """
    ring = ring_for(2, 3, 3)
    good = galois._jacobi_chunk

    def corrupt(ring, a, n, tables):
        out = good(ring, a, n, tables)
        out[a == 2, 50 - 1] = 0
        out[a == 3, 7 - 1] = 0
        return out

    monkeypatch.setattr(galois, "_jacobi_chunk", corrupt)
    monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
    with pytest.raises(MismatchError) as err:
        verify_stickelberger(ring)
    c = carry_count(2, 50, ring.field.params)
    assert str(err.value) == f"Stickelberger fails at (a,b)=(2,50): valuation {ring.precision} != carries {c}"


def test_stickelberger_tiles_refused_past_float64_bound(monkeypatch, capsys):
    """Forced onto the exhaustive route at (2, 3, 8), where e (q-2) (pN-1)^2 ~ 7.2e16 > 2^53: exit 1 before any gather.

    Every triple with q <= STICKELBERGER_EXHAUSTIVE_Q stays far below the bound: at most 8.5e9, at (2, 5, 2).
    """
    bound = {
        (P.p, P.ell, P.t): P.ext_degree * (P.q - 2) * (P.p ** galois._precision(P) - 1) ** 2
        for P in admissible(galois.STICKELBERGER_EXHAUSTIVE_Q)
    }
    assert max(bound, key=bound.get) == (2, 5, 2) and bound[2, 5, 2] < 1e10
    ring = ring_for(2, 3, 8)
    assert ring.e * (ring.field.q - 2) * (ring.pN - 1) ** 2 >= 1 << 53
    gathers = []
    monkeypatch.setattr(galois, "STICKELBERGER_EXHAUSTIVE_Q", ring.field.q)
    monkeypatch.setattr(galois, "_jacobi_chunk", lambda *args: gathers.append(args))
    monkeypatch.setattr(galois, "carry_count", lambda *args: gathers.append(args))
    with pytest.raises(BoundExceededError, match=r"e\*\(q-2\)\*\(p\^N-1\)\^2 < 2\^53"):
        verify_stickelberger(ring)
    code = cli.main(["verify", "--p", "2", "--ell", "3", "--t", "8", "--which", "stickelberger"])
    out, err = capsys.readouterr()
    assert code == 1 and not out and not gathers
    assert err.count("\n") == 1 and err.startswith("error: BoundExceededError: Jacobi tiles at q = 65536 need e*(q-2)")


def test_stickelberger_zeroed_jacobi_sum_exits_2_under_optimize(optimized_runs):
    """One zeroed _jacobi_chunk sum in verify --which stickelberger at q=16: exit 2 naming the pair, under python -O."""
    code, out, err = optimized_runs["stickelberger-tile"]
    assert code == 2, err
    assert err == "mismatch: Stickelberger fails at (a,b)=(5,6): valuation 6 != carries 1\n" and not out


def test_stickelberger_sampled_zeroed_sum_exits_2_under_optimize(optimized_runs):
    """The sampled route forced at q=16, one pair's Jacobi sum zeroed: exit 2 naming that pair, under python -O."""
    code, out, err = optimized_runs["stickelberger-sample"]
    assert code == 2, err
    assert err == "mismatch: Stickelberger fails at (a,b)=(5,6): valuation 6 != carries 1\n" and not out


def test_dropped_class_exits_2_under_optimize(optimized_runs):
    """Jacobi rows that leave class c = 1 out of their sum over c fail the block check: exit 2 with python -O too."""
    code, out, err = optimized_runs["dropped-class"]
    assert code == 2, err
    assert err.startswith("mismatch: block 0: local Smith valuations") and not out


def test_stickelberger_corrupt_pair_exits_2_under_optimize(optimized_runs):
    """One wrong carry count in verify --which stickelberger at q=16: exit 2 naming the pair, under python -O."""
    code, out, err = optimized_runs["stickelberger-pair"]
    assert code == 2, err
    assert err.startswith("mismatch: Stickelberger fails at (a,b)=(7,11):") and not out


def test_block_expected_patterns_q25():
    tab = field_for(5, 3, 1)
    ring = ring_for(5, 3, 1)
    # min-carry profile over i=1..7 is six zeros and one 1 (see carries tests)
    shapes = set()
    for i in range(1, 8):
        [(exps, zeros)] = ring_divisor_valuations(laplacian_block(ring, i)[None], ring)
        assert zeros == 0
        shapes.add(tuple(sorted(exps)))
        verify_block(tab, ring, i)
    assert shapes == {(0, 1, 2), (1, 1, 1)}
    [(exps, zeros)] = ring_divisor_valuations(laplacian_block(ring, 0)[None], ring)
    assert sorted(exps) == [0, 0, 1] and zeros == 1
    verify_block(tab, ring, 0)


def test_block_patterns_all_fixtures():
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        assert verify_all_blocks(ring_for(*trip)) == tab.params.k


def test_block_check_cold_rings():
    """Forty freshly built rings each pass the block check at q=256."""
    tab = field_for(2, 3, 4)
    for _ in range(40):
        assert verify_all_blocks(GaloisRing(tab)) == tab.params.k


def test_ring_not_mutated_by_use():
    tab = field_for(2, 3, 2)
    ring = GaloisRing(tab)
    before = dict(vars(ring))
    snapshot = pickle.dumps(before)
    jacobi_sum(-np.arange(1, 5), -5, ring)
    galois._group_sums(ring, np.arange(1, 5), galois._x_groups(ring))
    verify_stickelberger(ring)
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
        from_blocks = block_p_multiplicities(ring_for(*trip))
        from_carries = p_part_from_carries(P)
        oracle = snf_group_for(*trip).p_multiplicities(P.p)
        oracle[0] = P.q - 1 - sum(oracle.values())
        assert from_blocks == from_carries == oracle


def test_blocks_larger_index_primes():
    """ell = 5 with v_p(ell-1) = 2, and ell = 7 with v_p(ell-1) = 1."""
    for trip in [(2, 5, 2), (3, 7, 1)]:
        tab = field_for(*trip)
        ring = ring_for(*trip)
        assert verify_all_blocks(ring) == tab.params.k
        assert block_p_multiplicities(ring) == p_part_from_carries(tab.params)


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
    assert verify_all_blocks(ring_for(3, 5, 1)) == 16


def test_ring_elimination_known_diagonals():
    ring = ring_for(2, 3, 2)
    # the first two in one stack; mixed entries: det = -16, so valuations total 4 with a unit factor
    stack = np.array([[[1, 0, 0], [0, 8, 0], [0, 0, 4]], [[1, 4, 0], [3, 8, 4], [0, 0, 4]]])
    assert ring_divisor_valuations(stack, ring) == [([0, 2, 3], 0), ([0, 2, 2], 0)]
    assert ring_divisor_valuations(np.array([[[4, 0], [0, 0]]]), ring) == [([2], 1)]
    assert ring_divisor_valuations(np.zeros((1, 2, 2), dtype=np.int64), ring) == [([], 2)]


def planted_stack(ring, tr, n, rng):
    """A shuffled stack of n x n blocks of constants p^v * unit mod p^N, v planted, as lists of tuples.

    It holds an all-zero block; a block whose (0, 0) entry has valuation
    precision-1 and every other entry a valuation in 1..3, so the pivot
    lies elsewhere and a shift comes first; blocks with only rows 0..r-1
    nonzero for r = 1..n-1, which leave the elimination by step r; a
    block of valuations drawn from 0..precision+1, where v >= precision
    gives a zero entry; and a rank-one block x_i * y_j scaled by p^s,
    s >= precision-3, whose Schur complement vanishes only modulo the
    precision left after the shift.
    """
    p, prec = ring.p, ring.precision

    def entry(v):
        while (u := rng.randrange(ring.pN)) % p == 0:
            pass
        return tr.scalar(u * p**v)

    def block(rows, vals):
        return [[entry(vals()) if i < rows else tr.zero() for _ in range(n)] for i in range(n)]

    shifted = block(n, lambda: rng.randrange(1, 4))
    shifted[0][0] = entry(prec - 1)
    stack = [block(0, None), shifted, block(n, lambda: rng.randrange(prec + 2))]
    stack += [block(r, lambda: rng.choice([0, 0, 1, 2, prec - 1, prec])) for r in range(1, n)]
    x, y, scale = entry(0), entry(0), tr.scalar(p ** rng.randrange(prec - 3, prec))
    col, row = [tr.mul(entry(0), x) for _ in range(n)], [tr.mul(entry(0), y) for _ in range(n)]
    stack.append([[tr.mul(scale, tr.mul(a, b)) for b in row] for a in col])
    rng.shuffle(stack)
    return stack


@given(st.sampled_from([(2, 3, 4), (41, 3, 1)]), st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_elimination_matches_reference_on_planted_valuations(trip, n, seed):
    """The batched elimination equals the tuple route block by block, at precision 10 (2, 3, 4) and 3 (41, 3, 1)."""
    ring = ring_for(*trip)
    tr = TupleRing(ring)
    stack = planted_stack(ring, tr, n, random.Random(seed))
    found = ring_divisor_valuations(np.array(stack, dtype=np.int64)[..., 0], ring)
    assert found == [reference_divisor_valuations(block, tr) for block in stack]


BLOCK_REFERENCE_FIXTURES = [(2, 3, 4), (5, 3, 2), (3, 5, 1), (2, 5, 2), (3, 7, 1), (41, 3, 1)]


@pytest.mark.parametrize("trip", BLOCK_REFERENCE_FIXTURES)
def test_batched_blocks_match_tuple_reference(trip):
    """Every block, and its (valuations, zeros), equals the tuple route's.

    (41, 3, 1) has the largest p.  Blocks are compared entry by entry
    with blocks built from direct Jacobi sums.
    """
    tab, ring = field_for(*trip), ring_for(*trip)
    tr = TupleRing(ring)
    found = block_results(ring, range(tab.params.k))
    assert [i for i, _, _ in found] == list(range(tab.params.k))
    for (i, exps, zeros), block in zip(found, all_blocks(tab, ring)):
        ref = reference_block(tab, tr, i)
        assert as_tuples(block, tr) == ref, i
        assert (exps, zeros) == reference_divisor_valuations(ref, tr), i


def _block_orbits(P):
    """Orbits of i -> p*i mod k on the block indices 1..k-1, by walking each one."""
    seen, orbits = set(), []
    for i in range(1, P.k):
        if i not in seen:
            orbit = {i * P.p**j % P.k for j in range(P.ext_degree)}
            seen |= orbit
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("trip", [(2, 3, 4), (5, 3, 2), (3, 7, 1)])
def test_one_gather_per_orbit(monkeypatch, trip):
    """The block route groups x once, then gathers once for, and eliminates, block 0, each orbit's least block and 8 others."""
    P, ring = params_for(*trip), ring_for(*trip)
    built, eliminated, gathered, grouped = [], [], [], []
    good_blocks, good_gather, good_groups = galois._blocks, galois._group_sums, galois._x_groups
    good_valuations = galois.ring_divisor_valuations

    def building(ring, idx, groups):
        built.extend(idx.tolist())
        return good_blocks(ring, idx, groups)

    def eliminating(blocks, ring):
        eliminated.append(len(blocks))
        return good_valuations(blocks, ring)

    def gathering(ring, idx, groups):
        gathered.extend(idx.tolist())
        return good_gather(ring, idx, groups)

    def grouping(ring):
        grouped.append(ring)
        return good_groups(ring)

    monkeypatch.setattr(galois, "_blocks", building)
    monkeypatch.setattr(galois, "ring_divisor_valuations", eliminating)
    monkeypatch.setattr(galois, "_group_sums", gathering)
    monkeypatch.setattr(galois, "_x_groups", grouping)
    verify_all_blocks(ring)
    assert grouped == [ring]  # once per call, not once per batch
    least = sorted(min(orbit) for orbit in _block_orbits(P))
    assert sum(eliminated) == 1 + len(least) + carries.ORBIT_SAMPLE == len(built)
    assert built[: 1 + len(least)] == [0, *least]
    sample = built[1 + len(least) :]
    assert sample == sorted(set(sample)) and not set(sample) & {0, *least}
    assert gathered == built  # one grouped gather per built block


def test_orbit_identity_is_checked(monkeypatch):
    """Zeroed blocks that are not least in their orbit fail the sample, which names the representative."""
    P, ring = params_for(2, 3, 4), ring_for(2, 3, 4)
    least = {min(orbit) for orbit in _block_orbits(P)}
    good = galois._blocks

    def corrupt(ring, idx, groups):
        out = good(ring, idx, groups)
        out[[i > 0 and i not in least for i in idx.tolist()]] = 0
        return out

    monkeypatch.setattr(galois, "_blocks", corrupt)
    message = r"^block 2: local Smith valuations \[\] \(zeros 3\) != .* at its Frobenius orbit representative 1$"
    for check in (verify_all_blocks, block_p_multiplicities):
        with pytest.raises(MismatchError, match=message):
            check(ring)


@pytest.mark.parametrize("trip", [(2, 3, 4), (3, 7, 1), (2, 5, 2)])
def test_row_lookup_matches_direct_rows(trip):
    """Rows looked up from each orbit representative of r -> p*r equal the class-sum reference's rows, at every residue.

    The rows of p^j * r are those of r with J_n read at n * p^(-j) mod ell:
    the row identity behind block p*i mod k being block i permuted.
    """
    ring = ring_for(*trip)
    P = ring.field.params
    rs = np.arange(P.q - 1)
    direct = jacobi_rows_reference(ring, rs)
    multipliers = set()
    for r in range(P.q - 1):
        rep, back = min((r * P.p**j % (P.q - 1), -j % P.ext_degree) for j in range(P.ext_degree))
        m = pow(P.p, -back, P.ell)
        multipliers.add(m)
        assert np.array_equal(direct[r], direct[rep][np.arange(1, P.ell) * m % P.ell - 1]), (r, rep)
    if P.ell > 3:  # some exponent permutes its rows by more than n -> -n
        assert multipliers - {1, P.ell - 1}


def test_every_block_matches_its_orbit_representative():
    """Every block's (sorted valuations, zeros) equals its orbit representative's: all q <= 256, and (3, 7, 1)."""
    for P in admissible(256) + [params_for(3, 7, 1)]:
        found = {i: (sorted(exps), zeros) for i, exps, zeros in block_results(ring_for(P.p, P.ell, P.t), range(1, P.k))}
        orbits = _block_orbits(P)
        assert max(map(len, orbits)) > 1, P
        for orbit in orbits:
            assert {i: found[i] for i in orbit} == dict.fromkeys(orbit, found[min(orbit)]), (P, orbit)


@pytest.mark.parametrize("trip", [(2, 5, 2), (3, 7, 1)])
def test_wrong_multiplier_is_checked(monkeypatch, trip):
    """Orbits walked by p+1 in place of p have sizes that do not sum to k-1."""
    good = galois._orbit_representatives

    def wrong(lo, hi, P):
        return good(lo, hi, SimpleNamespace(p=P.p + 1, k=P.k, ext_degree=P.ext_degree))

    monkeypatch.setattr(galois, "_orbit_representatives", wrong)
    for check in (verify_all_blocks, block_p_multiplicities):
        with pytest.raises(MismatchError, match=r"^Frobenius orbit sizes sum to \d+, not k - 1 = \d+$"):
            check(ring_for(*trip))


@pytest.mark.parametrize("batch_bytes", [1, galois.BATCH_BYTES])
def test_corrupt_block_names_lowest_index(monkeypatch, batch_bytes):
    """Zeroed blocks 7 and 29, both least in their orbits, fail as block 7, whether or not they share a batch."""
    tab, ring = field_for(2, 3, 4), ring_for(2, 3, 4)
    good = galois._blocks

    def corrupt(ring, idx, groups):
        out = good(ring, idx, groups)
        out[np.isin(idx, (29, 7))] = 0
        return out

    monkeypatch.setattr(galois, "_blocks", corrupt)
    monkeypatch.setattr(galois, "BATCH_BYTES", batch_bytes)
    want, _ = expected_block_valuations(tab, [7])
    for check in (verify_all_blocks, block_p_multiplicities):
        with pytest.raises(MismatchError) as err:
            check(ring)
        assert str(err.value) == f"block 7: local Smith valuations [] (zeros 3) != expected {want[0].tolist()} (zeros 0)"


def test_block_index_out_of_range():
    tab, ring = field_for(2, 3, 2), ring_for(2, 3, 2)
    for i in (-1, tab.params.k):
        with pytest.raises(ValueError):
            laplacian_block(ring, i)
        with pytest.raises(ValueError):
            verify_block(tab, ring, i)


def test_wrong_min_carries_exits_2_under_optimize(optimized_runs):
    """A min_carries off by one sets a wrong expected pattern: exit 2 with python -O too."""
    code, out, err = optimized_runs["min-carries"]
    assert code == 2, err
    assert err.startswith("mismatch: block 1: local Smith valuations") and not out


def test_corrupt_sampled_block_exits_2_under_optimize(optimized_runs):
    """A zeroed block outside the orbit representatives fails the sample: exit 2 with python -O too."""
    code, out, err = optimized_runs["sampled-block"]
    assert code == 2, err
    assert err.startswith("mismatch: block 2: local Smith valuations [] (zeros 3)") and not out
    assert err.rstrip().endswith("at its Frobenius orbit representative 1") and err.count("\n") == 1


ADMISSIBLE_Q1024 = admissible(1024)


@given(st.sampled_from(ADMISSIBLE_Q1024))
@settings(max_examples=20, deadline=None)
def test_batched_p_part_differential(P):
    """Block p-part == p-local elimination == carry p-part for q <= 1024, and block by block == tuple route for q <= 256."""
    tab, ring = field_for(P.p, P.ell, P.t), ring_for(P.p, P.ell, P.t)
    want = p_part_from_carries(P)
    assert block_p_multiplicities(ring) == want
    assert laplacian_p_multiplicities(tab) == want
    if P.q <= 256:
        tr = TupleRing(ring)
        for i, exps, zeros in block_results(ring, range(P.k)):
            assert (exps, zeros) == reference_divisor_valuations(reference_block(tab, tr, i), tr), i

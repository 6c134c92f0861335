"""Galois ring arithmetic, Teichmuller lifts, Jacobi sums, and block checks.

GR(p^N, e) is modeled as coefficient vectors of length e with entries in
0..p^N-1, reduced modulo the same irreducible polynomial the field
tables use (lifted coefficientwise), so reduction mod p lands exactly on
the field module's representation.  Elements are numpy arrays whose
last axis is the e coefficients, a single element as much as a stack of
blocks; a*b = a @ T(b), T(b) = b @ W the matrix of multiplication by b
(W[j, i] = X^(i+j)), by the field module's arithmetic at m = p^N in
place of m = p.  The Teichmuller generator omega is the lifted field
generator raised to q^2, which omega^(q-1) = 1 certifies (omega_table).
Jacobi sums and class sums are counts of Teichmuller exponents times the
float64 table of their powers (_count_sums).  Jacobi valuations realize
carry counts (Stickelberger), which the verification suite checks: up to
q = 256 every pair, from the 2-D character transform (float64 GEMM tiles
of the coefficients of omega^(-a dlog x) and of omega^(-b dlog(1-x)) over
x, exact below 2^53), beyond it a seeded sample.  The ring is int64, at
the precision N = v_p(uv) + 1 that _precision explains.

The Laplacian restricted to each multiplicative isotypic component is a
small matrix over this ring whose local Smith form the block checks
compare against the closed-form pattern.  Its off-diagonal entries are
J(T^a, T^(-nk)), n = 1..ell-1, and T^(-nk)(1-x) depends only on the coset
class c(x) = dlog(1-x) mod ell; so each block row is the class sums
S_c(a) (T^a(x) summed over x not in {0, 1} with c(x) = c) times a fixed
matrix of powers of omega^k.  The class sums obey S_c(p*r) = S_{p*c}(r):
x -> x^p permutes F_q minus {0, 1}, multiplies dlog x by p, and
multiplies c(x) by p because 1 - x^p = (1 - x)^p.  So block p*i mod k is
block i with rows and columns permuted alike.  block_p_multiplicities,
which verify_all_blocks runs, is one pass: one block per orbit of i -> p*i
mod k (the carry histogram's) checked on the closed form and counted once
per orbit member, then a sample of the others against their representative.
Blocks of one shape are eliminated as one (nb, n, n, e) array, inverse-free.
"""

from __future__ import annotations

import random

import numpy as np

from .carries import ORBIT_SAMPLE, _orbit_representatives, carry_count, min_carries
from .errors import BoundExceededError, MismatchError
from .field import BATCH_BYTES, FieldTable, _digits, _mul, _power, _times_matrix, _times_table

# verify_stickelberger checks every pair up to this q, else STICKELBERGER_SAMPLE seeded pairs.
STICKELBERGER_EXHAUSTIVE_Q = 256
STICKELBERGER_SAMPLE = 4000


def _precision(P) -> int:
    """N = v_p(uv) + 1, the least precision that reads every valuation the checks expect.

    Block divisors are at most v_p(uv) = (ell-1)t + d and Jacobi valuations
    (carry counts) at most (ell-1)t; one at or above N reads as an extra zero
    and fails the check.  Raises BoundExceededError unless the widest int64
    sum, a Jacobi row's ell*e products of reduced entries, stays below 2^62.
    """
    N = P.ext_degree + P.d + 1
    if P.ell * P.ext_degree * P.p ** (2 * N) >= 1 << 62:
        raise BoundExceededError(f"GR({P.p}^{N}, {P.ext_degree}) needs ell*e*p^(2N) < 2^62 for int64 arithmetic")
    return N


class GaloisRing:
    """Arithmetic context for GR(p^N, (ell-1)t) tied to a FieldTable, in int64."""

    def __init__(self, field: FieldTable):
        P = field.params
        self.field = field
        self.p = P.p
        self.e = P.ext_degree
        self.precision = _precision(P)  # v_p(uv) + 1: every expected valuation reads exactly
        self.pN = P.p**self.precision
        self.mod_poly = field.mod_poly
        q, ell, e, k = field.q, P.ell, self.e, P.k
        self._times = _times_table(self.mod_poly, self.pN)  # _times[j, i] = X^(i+j), reduced
        # Every table is built here and never changed, so a ring can be shared freely.  _omega[i, j] is
        # coefficient i of omega^j: float64 for BLAS, and (e, q-1) so that products and np.take read it as is.
        table = self.omega_table()
        self._omega = np.ascontiguousarray(table.T, dtype=np.float64)
        # _row_map[c, j, (n-1)e + i] is coefficient i of zeta^(-nc) X^j, with
        # zeta = omega^k, so the class sums times it give the Jacobi row.
        powers = _times_matrix(table[np.arange(ell) * k], self._times, self.pN)
        del table  # the int64 copy of _omega: free it before the q-sized dlog arrays
        s = -np.arange(ell)[:, None] * np.arange(1, ell) % ell
        self._row_map = powers[s].transpose(0, 2, 1, 3).reshape(ell, e, (ell - 1) * e)
        # -x = (-1) * x with -1 at index p-1, and 1 + y changes only digit 0 of y
        self._dlog_x = field.dlog[2:]  # x runs over F_q minus {0, 1}
        minus_x = field.antilog[(self._dlog_x + field.dlog[self.p - 1]) % (q - 1)]
        self._dlog_1mx = field.dlog[minus_x + 1 - self.p * (minus_x % self.p == self.p - 1)]

    # --- Teichmuller lifts --------------------------------------------------
    def omega_table(self) -> np.ndarray:
        """(q-1, e) array of all Teichmuller lifts omega^j, filled by doubling as build_field fills antilog.

        omega = x^(q^2), x the coefficientwise lift of the field generator: x = omega*u with v_p(u-1) >= 1,
        each q-th power raises v_p(u-1) by e or more, and 1 + 2e > e + d = N - 1 as d = v_p(ell-1) < ell-1 <= e.
        omega^(q-1) = 1 certifies the lift, else MismatchError.
        """
        q, pN = self.field.q, self.pN
        T = T_w = _power(_times_matrix(_digits(self.field.generator, self.p, self.e), self._times, pN), q * q, pN)
        table = np.zeros((q - 1, self.e), dtype=np.int64)
        table[0, 0] = 1
        n = 1
        while n < q - 1:  # T multiplies by omega^n
            m = min(n, q - 1 - n)
            table[n : n + m] = _mul(table[:m], T, pN)
            T, n = T @ T % pN, n + m
        if not np.array_equal(_mul(table[-1], T_w, pN), table[0]):
            raise MismatchError(f"Teichmuller generator does not have order q-1 = {q - 1}")
        return table


# --- Jacobi sums ---------------------------------------------------------


def _count_sums(ring: GaloisRing, bins: np.ndarray, width: int) -> np.ndarray:
    """(len(bins), width, e) sums mod pN: entry c*(q-1) + r of row i adds omega^r to sum (i, c).

    Offsets bins in place; one bincount with unit weights (so the counts are float64) and one
    product with the table.  Exact: a sum's counts add to at most q-2 < 2^16 (DEFAULT_MAX_Q) and
    its entries are below p^N < 2^31 (_precision's bound), so partial sums stay below 2^47 < 2^53.
    """
    n, q = len(bins), ring.field.q
    bins += np.arange(n)[:, None] * (width * (q - 1))
    counts = np.bincount(bins.ravel(), np.ones(bins.size), n * width * (q - 1)).reshape(n * width, q - 1)
    return ((counts @ ring._omega.T).astype(np.int64) % ring.pN).reshape(n, width, -1)


def jacobi_sum(a, b, ring: GaloisRing) -> np.ndarray:
    """J(T^a, T^b) = sum over x in K of T^a(x) T^b(1-x), exactly mod p^N.

    a and b are broadcast exponent arrays; the result has shape
    (..., e).  Exponents are taken mod q-1; a literal 0 selects the
    all-ones character (nonzero multiples of q-1 select the character
    vanishing at zero), matching the usual boundary conventions.  Over
    x not in {0, 1} the sum is sum_r N(r) omega^r, where N(r) counts the
    x with a*dlog(x) + b*dlog(1-x) = r mod q-1: one sum of _count_sums
    per pair, in batches of max(BATCH_BYTES, 24*(q-1)) bytes (one pair from q = 2^14).
    """
    q = ring.field.q
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    fa, fb = a.reshape(-1, 1) % (q - 1), b.reshape(-1, 1) % (q - 1)
    per = max(1, BATCH_BYTES // (24 * (q - 1)))  # a pair's exponents, one temporary and its counts
    acc = np.empty((a.size, 1, ring.e), dtype=np.int64)
    for lo in range(0, a.size, per):
        bins = fa[lo : lo + per] * ring._dlog_x
        bins += fb[lo : lo + per] * ring._dlog_1mx
        acc[lo : lo + per] = _count_sums(ring, bins % (q - 1), 1)
    acc[:, 0, 0] = (acc[:, 0, 0] + (a == 0).ravel() + (b == 0).ravel()) % ring.pN  # x = 1 and x = 0 terms
    return acc.reshape(a.shape + (ring.e,))


def _gather_class_sums(ring: GaloisRing, rs: np.ndarray) -> np.ndarray:
    """(len(rs), ell, e) class sums S_c(r) mod pN: sum (r, c) of _count_sums counts r*dlog x, c(x) = c.

    A batch holds max(BATCH_BYTES, 8*ell*(q-1)) bytes of counts: at least one exponent (1.57 MB at (2,3,8)).
    """
    q, ell = ring.field.q, ring.field.params.ell
    per = max(1, BATCH_BYTES // (8 * ell * (q - 1)))  # the counts of one exponent
    cls = ring._dlog_1mx % ell * (q - 1)  # x counts into the bins of its class c(x)
    batches = (rs[lo : lo + per, None] * ring._dlog_x % (q - 1) + cls for lo in range(0, len(rs), per))
    return np.concatenate([_count_sums(ring, bins, ell) for bins in batches])


def _jacobi_rows(ring: GaloisRing, sums: np.ndarray) -> np.ndarray:
    """(R, ell-1, e) Jacobi rows J(T^r, T^(-nk)), n = 1..ell-1, from (R, ell, e) class sums."""
    R, ell, e = sums.shape
    return (sums.reshape(R, ell * e) @ ring._row_map.reshape(ell * e, -1) % ring.pN).reshape(R, ell - 1, e)


def _jacobi_chunk(ring: GaloisRing, a: np.ndarray, n: int) -> np.ndarray:
    """(len(a), q-2, e) Jacobi sums J(T^-a, T^-b) mod pN, 0 < a, b < q-1, one dgemm per n exponents b.

    Row (i, a) of U holds coefficient i of omega^(-a dlog x) over the x not
    in {0, 1}, and row (j, b) of V that of omega^(-b dlog(1-x)), both read
    from the ring's float64 table; the tile G = U @ V.T sums each product
    of coefficients over x, and G @ W folds X^(i+j) back into the ring.
    Every value is an integer in [0, (q-2) e^2 (pN-1)^3], exact in float64
    while that is below 2^53.
    """
    q, e = ring.field.q, ring.e
    omega, W = ring._omega, ring._times.reshape(e * e, e).astype(np.float64)
    U = np.take(omega, -a[:, None] * ring._dlog_x % (q - 1), axis=1).reshape(e * len(a), q - 2)
    out = np.empty((len(a), q - 2, e), dtype=np.int64)
    for lo in range(0, q - 2, n):
        b = np.arange(lo + 1, min(lo + n, q - 2) + 1)
        G = U @ np.take(omega, -b[:, None] * ring._dlog_1mx % (q - 1), axis=1).reshape(e * len(b), q - 2).T
        out[:, lo : lo + len(b)] = G.reshape(e, len(a), e, len(b)).transpose(1, 3, 0, 2).reshape(len(a), len(b), -1) @ W
    out %= ring.pN
    return out


def verify_stickelberger(ring: GaloisRing, seed: int = 0) -> int:
    """Jacobi valuation == carry count over admissible exponent pairs.

    Exhaustive when q <= STICKELBERGER_EXHAUSTIVE_Q: the Jacobi sums of a
    chunk of rows a come from float64 GEMM tiles (_jacobi_chunk), and the
    chunk's pairs are checked in lexicographic order with one carry_count.
    The tiles are exact while (q-2) e^2 (pN-1)^3 < 2^53, else
    BoundExceededError before the first one; the triples with q <= 256
    use at most 2^47, at (2, 5, 2).  Otherwise STICKELBERGER_SAMPLE pairs drawn
    with the seed, summed by one jacobi_sum and checked in the order drawn with
    one carry_count.  Returns the number of pairs checked.  Raises MismatchError
    on the first failing pair; a Jacobi sum that vanishes mod p^N counts as valuation N.
    """
    P = ring.field.params
    p, q, e, pN, N, sample = P.p, P.q, ring.e, ring.pN, ring.precision, STICKELBERGER_SAMPLE
    if q > STICKELBERGER_EXHAUSTIVE_Q:
        rng, pairs, made = random.Random(seed), np.zeros((2, sample), dtype=np.int64), 0
        while made < sample:
            pair = rng.randrange(1, q - 1), rng.randrange(1, q - 1)
            if sum(pair) % (q - 1):
                pairs[:, made] = pair
                made += 1
        chunks = [(*pairs, _valuations(jacobi_sum(-pairs[0], -pairs[1], ring), p, N))]
    else:
        if (q - 2) * e * e * (pN - 1) ** 3 >= 1 << 53:
            raise BoundExceededError(f"Jacobi tiles at q = {q} need (q-2)*e^2*(p^N-1)^3 < 2^53 to be exact in float64")
        n, ex = max(1, BATCH_BYTES // (16 * e * (q - 2))), np.arange(1, q - 1)  # U and V fill BATCH_BYTES
        rows = (ex[lo : lo + n] for lo in range(0, q - 2, n))
        chunks = ((*np.broadcast_arrays(a[:, None], ex), _valuations(_jacobi_chunk(ring, a, n), p, N)) for a in rows)
    checked = 0
    for a, b, v in chunks:
        keep = (a + b) % (q - 1) != 0
        a, b, v = a[keep], b[keep], v[keep]
        c = carry_count(a, b, P)
        if (bad := v != c).any():
            j = np.argmax(bad)
            raise MismatchError(f"Stickelberger fails at (a,b)=({a[j]},{b[j]}): valuation {v[j]} != carries {c[j]}")
        checked += len(a)
    return checked


# --- isotypic blocks of the Laplacian -------------------------------------


def _row_residues(P, idx: np.ndarray) -> np.ndarray:
    """(len(idx), ell) exponents -(i + m*k) mod q-1 of the Jacobi rows of each block i."""
    if not 0 <= idx.min() <= idx.max() <= P.k - 1:
        raise ValueError(f"block indices must lie in 0..k-1, got {idx.min()}..{idx.max()}")
    return -(idx[:, None] + np.arange(P.ell) * P.k) % (P.q - 1)


def _blocks(ring: GaloisRing, idx: np.ndarray) -> np.ndarray:
    """(len(idx), n, n, e) stack of ell*L on the isotypic components i in idx.

    For i > 0 (n = ell), row m holds the image of the basis character-sum
    vector indexed by i + m*k: q on the diagonal, minus Jacobi sums from the
    class sums of exponent -(i + m*k) elsewhere.  idx = [0] gives the
    trivial-character component (n = ell+1) in the basis: all-ones vector,
    the zero-vertex indicator, then the subgroup-coset character sums.
    """
    P = ring.field.params
    ell, q, pN = P.ell, P.q, ring.pN
    jac = -_jacobi_rows(ring, _gather_class_sums(ring, _row_residues(P, idx).ravel())) % pN
    if idx[0] > 0:
        out = np.zeros((len(idx), ell, ell, ring.e), dtype=np.int64)
        m = np.arange(ell)
        out[:, m, m, 0] = q % pN
        out[:, m[:, None], (m[:, None] + np.arange(1, ell)) % ell] = jac.reshape(len(idx), ell, ell - 1, -1)
        return out
    out = np.zeros((1, ell + 1, ell + 1, ring.e), dtype=np.int64)
    out[0, 1, :, 0] = pN - 1  # the image of the all-ones vector (row 0) is 0
    out[0, 1, 1, 0] = q % pN
    for j in range(1, ell):
        out[0, 1 + j, :2, 0] = 1, -q % pN
        out[0, 1 + j, 1 + j, 0] = q % pN
        for n in range(1, ell):
            if (j + n) % ell:
                out[0, 1 + j, 1 + (j + n) % ell] = jac[j, n - 1]
    return out


def _valuations(M: np.ndarray, p: int, zero: int) -> np.ndarray:
    """Least coefficient valuation of every entry of M (last axis e); `zero` for zero entries."""
    g = np.gcd.reduce(M, axis=-1)
    v = np.where(g == 0, zero, 0)
    while (step := (g % p == 0) & (g != 0)).any():
        v += step
        g = np.where(step, g // p, g)
    return v


def ring_divisor_valuations(blocks: np.ndarray, ring: GaloisRing) -> list[tuple[list[int], int]]:
    """Local Smith form of each block of an (nb, n, n, e) stack: (valuations, zero count).

    Valuation-pivot elimination, on every block at once.  Take the first
    entry of least valuation in row-major order of the remaining
    submatrix and divide that valuation out of it (all later divisors
    inherit it), which makes the entry a unit u; move it to the corner and
    replace the rest by u*S, S its Schur complement: a unit multiple has
    the same local Smith form, and needs no inverse.  Entries stay
    reduced mod p^avail, the precision left after the accumulated shift;
    a block stops once its remaining submatrix is zero.
    """
    p, prec = ring.p, ring.precision
    M = np.asarray(blocks, dtype=np.int64) % ring.pN
    nb, n = M.shape[:2]
    live, shift, rank = np.arange(nb), np.zeros(nb, dtype=np.int64), np.zeros(nb, dtype=np.int64)
    exps = np.zeros((nb, n), dtype=np.int64)
    for t in range(n):
        g = np.gcd.reduce(M, axis=-1).reshape(len(live), -1)
        vmin = _valuations(g, p, prec)
        going = vmin < prec
        live, M, g, vmin = live[going], M[going], g[going], vmin[going]
        if not len(live):
            break
        pv = np.array([p**v for v in vmin.tolist()], dtype=np.int64)
        # the first entry of valuation vmin is the first whose coefficient gcd p^(vmin+1) does not divide
        pos = (g % (p * pv)[:, None] != 0).argmax(axis=1)
        if vmin.any():
            M //= pv[:, None, None, None]
        shift[live] += vmin
        modulus = np.array([p ** (prec - s) for s in shift[live].tolist()], dtype=np.int64)
        # swap rows 0 and i0, and columns 0 and j0, to put the pivot in the corner
        at, m = np.arange(len(live)), n - t
        perm = np.tile(np.arange(m), (2, len(live), 1))
        perm[0, at, pos // m], perm[1, at, pos % m] = 0, 0
        perm[:, :, 0] = pos // m, pos % m
        M = M[at[:, None, None], perm[0, :, :, None], perm[1, :, None, :]]
        T = _times_matrix(M[:, 0], ring._times, ring.pN)  # T[:, j] multiplies by M[:, 0, j]
        S = M[:, 1:, 1:] @ T[:, None, 0]
        S -= (M[:, None, 1:, 0] @ T[:, 1:]).transpose(0, 2, 1, 3)
        S %= modulus[:, None, None, None]
        M = S
        exps[live, t] = shift[live]
        rank[live] += 1
    return [(row[:r].tolist(), n - r) for row, r in zip(exps, rank.tolist())]


def expected_block_valuations(table: FieldTable, idx) -> tuple[np.ndarray, int]:
    """Closed-form local Smith patterns of a batch of blocks: (sorted valuations per block, zeros).

    idx is [0], the trivial block, or indices in 1..k-1, whose patterns
    come from one array min_carries.
    """
    P = table.params
    half, idx = P.ext_degree // 2, np.asarray(idx, dtype=np.int64)
    if idx.tolist() == [0]:
        return np.array([sorted([0, 0] + [half] * (P.ell - 3) + [P.vp(P.u)])]), 1
    c = min_carries(idx, P)[:, None]
    return np.sort(np.hstack([c, np.full((len(idx), P.ell - 2), half), P.vp(P.u * P.v) - c]), axis=1), 0


def _block_valuations(ring: GaloisRing, indices):
    """Yield (batch, [(valuations, zero count) per block]) over the increasing indices.

    Each batch computes the class sums of its own rows; the blocks are
    built and eliminated in batches, the trivial block on its own.
    """
    P = ring.field.params
    idx = np.asarray(indices, dtype=np.int64)
    # about the words of one block's Schur-step temporaries: T of its pivot row and two products
    per = max(1, BATCH_BYTES // (8 * (2 * ring.e - 1) * P.ell * (P.ell + ring.e)))
    first = int(0 in idx[:1])  # the trivial block has a shape of its own
    for batch in [idx[:1]] * first + [idx[lo : lo + per] for lo in range(first, len(idx), per)]:
        yield batch, ring_divisor_valuations(_blocks(ring, batch), ring)


def block_p_multiplicities(ring: GaloisRing) -> dict[int, int]:
    """p-part multiplicities from the block local Smith forms, in one pass that checks every block.

    The orbits of i -> p*i mod k are the carry histogram's; their sizes
    must sum to k-1.  Block 0 and the least block of each orbit must have
    the closed-form pattern (expected_block_valuations), and each adds its
    valuations once per block of its orbit.  Then ORBIT_SAMPLE other
    blocks, spread evenly, must match their representative's (sorted
    valuations, zeros).  Raises MismatchError naming the lowest failing
    block, or a sampled block and its representative.
    """
    P, k = ring.field.params, ring.field.params.k
    reps, sizes = _orbit_representatives(1, k, P)
    if sizes.sum() != k - 1:
        raise MismatchError(f"Frobenius orbit sizes sum to {sizes.sum()}, not k - 1 = {k - 1}")
    idx, sizes = np.concatenate([[0], reps]), np.concatenate([[1], sizes])
    got = {}
    for batch, found in _block_valuations(ring, idx):
        want, want_zeros = expected_block_valuations(ring.field, batch)
        for i, (exps, zeros), w in zip(batch.tolist(), found, want.tolist()):
            got[i] = sorted(exps), zeros
            if got[i] != (w, want_zeros):
                raise MismatchError(
                    f"block {i}: local Smith valuations {sorted(exps)} (zeros {zeros}) "
                    f"!= expected {w} (zeros {want_zeros})"
                )
    hist: dict[int, int] = {}
    for i, size in zip(idx.tolist(), sizes.tolist()):
        for v in got[i][0]:
            hist[v] = hist.get(v, 0) + size
    others = np.ones(k, dtype=bool)  # a mask: np.setdiff1d's sorting temporaries raise peak RSS
    others[idx] = False
    others = np.flatnonzero(others)
    n = min(ORBIT_SAMPLE, len(others))
    sample = others[np.arange(n) * (len(others) - 1) // max(n - 1, 1)]
    least = (sample * P.p ** np.arange(P.ext_degree)[:, None] % k).min(axis=0)
    for batch, found in _block_valuations(ring, sample):
        for i, r, (exps, zeros) in zip(batch.tolist(), least[np.searchsorted(sample, batch)].tolist(), found):
            if (sorted(exps), zeros) != got.get(r):
                raise MismatchError(
                    f"block {i}: local Smith valuations {sorted(exps)} (zeros {zeros}) "
                    f"!= {got.get(r)} at its Frobenius orbit representative {r}"
                )
    return hist


def verify_all_blocks(ring: GaloisRing) -> int:
    """block_p_multiplicities' checks of every isotypic block; returns the number of blocks, k."""
    block_p_multiplicities(ring)
    return ring.field.params.k

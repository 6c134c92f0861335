"""Galois ring arithmetic, Teichmuller lifts, Jacobi sums, and block checks.

GR(p^N, e) is modeled as coefficient vectors of length e with entries in
0..p^N-1, reduced modulo the same irreducible polynomial the field
tables use (lifted coefficientwise), so reduction mod p lands exactly on
the field module's representation; a*b = a @ T(b), T(b) = b @ W, by the
field module's arithmetic at m = p^N in place of m = p.  The Teichmuller
generator omega is the lifted field generator raised to q^2, whose
powers come from the field module's fill, which certifies omega^(q-1) = 1.

Every Jacobi sum lies in Z/p^N, the constants: Frobenius maps omega^j to
omega^(pj), so J(T^a, T^b) to the sum over x of T^a(x^p) T^b(1-x^p), as
1 - x^p = (1 - x)^p, which is J again since x -> x^p permutes F_q; and
Frobenius fixes exactly Z/p^N.  So only coefficient 0 is computed: a
Jacobi sum is a sum of kappa, the float64 column 0 of the powers of
omega (jacobi_sum), and block entries, Schur steps and valuations are
int64 scalars mod p^N, at the precision N = v_p(uv) + 1 that _precision
explains.  Jacobi valuations realize carry counts (Stickelberger), which
the verification suite checks: up to q = 256 every pair, by float64
products summed over batches of x, exact while e(q-2)(p^N-1)^2 < 2^53;
beyond it a seeded sample.

The Laplacian restricted to each multiplicative isotypic component is a
small matrix over Z/p^N whose local Smith form the block checks compare
against the closed-form pattern.  Row m of block i holds J(T^r, T^(-nk)),
r = -(i + m*k), the sum over x of T^r(x) zeta^(-n c(x)), zeta = omega^k,
c(x) = dlog(1-x) mod ell.  With tau(x) = dlog x mod ell and k*ell = q-1,
r*dlog x = -i*dlog x - k*m*tau(x) mod q-1, so the whole block comes from
one gather: W[c, tau, s], coefficient 0 of omega^(-i dlog x) zeta^(-s)
summed over the x not in {0, 1} of group (c(x), tau(x)) = (c, tau), and
entry (m, n) is the sum over (c, tau) of W[c, tau, (m*tau + n*c) mod ell].
The class sums S_c(r), T^r(x) summed over the x with c(x) = c, obey
S_c(p*r) = S_{p*c}(r), by x -> x^p again, so block p*i mod k is block i
with rows and columns permuted alike.  block_p_multiplicities, which
verify_all_blocks runs, is one pass: one block per orbit of i -> p*i mod k
(the carry histogram's) checked on the closed form and counted once per
orbit member, then a sample of the others against their representative.
Blocks of one shape are eliminated as one (nb, n, n) array, inverse-free.
"""

from __future__ import annotations

import random

import numpy as np

from .carries import ORBIT_SAMPLE, _orbit_representatives, carry_count, min_carries
from .errors import BoundExceededError, MismatchError
from .field import BATCH_BYTES, FieldTable, _digits, _power, _powers, _times_matrix, _times_table

# verify_stickelberger checks every pair up to this q, else STICKELBERGER_SAMPLE seeded pairs.
STICKELBERGER_EXHAUSTIVE_Q = 256
STICKELBERGER_SAMPLE = 4000


def _precision(P) -> int:
    """N = v_p(uv) + 1, the least precision that reads every valuation the checks expect.

    Block divisors are at most v_p(uv) = (ell-1)t + d and Jacobi valuations
    (carry counts) at most (ell-1)t; one at or above N reads as an extra zero
    and fails the check.  Raises BoundExceededError unless ell*e*p^(2N) < 2^62:
    int64 then holds omega_table's sums of e products and each scalar Schur
    step's two products, and p^N < 2^31 keeps the float64 sums of jacobi_sum
    and of the block route (_group_sums and its fold) below 2^47.  The Stickelberger check tests its own float64 bound.
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
        q, ell, k = field.q, P.ell, P.k
        self._times = _times_table(self.mod_poly, self.pN)  # _times[j, i] = X^(i+j), reduced
        # Every table is built here and never changed, so a ring can be shared freely.  Jacobi sums are
        # constants (module docstring), so only coefficient 0 is kept: _kappa[j] of omega^j, float64 for
        # exact sums, and _K[j, m] of omega^j zeta^(-m) = omega^(j - mk), zeta = omega^k, for the block route.
        self._kappa = np.concatenate([chunk[:, 0].astype(np.float64) for chunk in self._omega_chunks()])
        self._K = self._kappa[(np.arange(q - 1)[:, None] - np.arange(ell) * k) % (q - 1)]
        self._dlog_x = field.dlog[2:]  # x runs over F_q minus {0, 1}
        minus_x = field.antilog[(self._dlog_x + field.dlog[self.p - 1]) % (q - 1)]  # -1 is index p-1
        # 1 + y changes only digit 0 of y; add_many would page in its p = 2 xor kernel, 64 KiB of RSS
        self._dlog_1mx = field.dlog[minus_x + 1 - self.p * (minus_x % self.p == self.p - 1)]

    # --- Teichmuller lifts --------------------------------------------------
    def _omega_chunks(self):
        """Yield omega^0, ..., omega^(q-2) in (B, e) chunks from field._powers, which certifies omega^(q-1) = 1.

        omega = x^(q^2), x the coefficientwise lift of the field generator: x = omega*u with v_p(u-1) >= 1,
        each q-th power raises v_p(u-1) by e or more, and 1 + 2e > e + d = N - 1 as d = v_p(ell-1) < ell-1 <= e.
        """
        q, pN = self.field.q, self.pN
        T = _power(_times_matrix(_digits(self.field.generator, self.p, self.e), self._times, pN), q * q, pN)
        return _powers(T, q - 1, pN, f"Teichmuller generator does not have order q-1 = {q - 1}")

    def omega_table(self) -> np.ndarray:
        """(q-1, e) array of all Teichmuller lifts omega^j: the chunks of _omega_chunks, joined."""
        return np.concatenate(list(self._omega_chunks()))


# --- Jacobi sums ---------------------------------------------------------


def jacobi_sum(a, b, ring: GaloisRing) -> np.ndarray:
    """J(T^a, T^b) = sum over x in K of T^a(x) T^b(1-x), exactly mod p^N.

    a and b are broadcast exponent arrays; the result has their broadcast
    shape, one element of Z/p^N per pair: a Jacobi sum is fixed by
    Frobenius, so it is its coefficient 0 (module docstring).  Exponents
    are taken mod q-1; a literal 0 selects the all-ones character (nonzero
    multiples of q-1 select the character vanishing at zero), matching the
    usual boundary conventions.  Over x not in {0, 1} it sums the q-2 terms
    kappa[a*dlog(x) + b*dlog(1-x) mod q-1] < p^N < 2^31, exactly below 2^47:
    one gather and one row sum per batch of max(BATCH_BYTES, 24*(q-1)) bytes.
    """
    q = ring.field.q
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    fa, fb = a.reshape(-1, 1) % (q - 1), b.reshape(-1, 1) % (q - 1)
    per = max(1, BATCH_BYTES // (24 * (q - 1)))  # a pair's exponents, one temporary and its kappa values
    acc = np.empty(a.size, dtype=np.int64)
    for lo in range(0, a.size, per):
        r = fa[lo : lo + per] * ring._dlog_x
        r += fb[lo : lo + per] * ring._dlog_1mx
        acc[lo : lo + per] = ring._kappa[r % (q - 1)].sum(axis=1)
    return ((acc + (a == 0).ravel() + (b == 0).ravel()) % ring.pN).reshape(a.shape)  # x = 1 and x = 0 terms


def _jacobi_chunk(ring: GaloisRing, a: np.ndarray, n: int, tables) -> np.ndarray:
    """(len(a), q-2) Jacobi sums J(T^-a, T^-b) mod pN, 0 < a, b < q-1, summed over batches of n elements x.

    tables are float64 (q-1, e): (s, j) holds coefficient 0 of omega^s X^j, and coefficient j of omega^s.
    U_x[a, (x, j)] reads the first at s = -a dlog x and V_x[b, (x, j)] the second at s = -b dlog(1-x), for
    every b; J += U_x @ V_x.T adds coefficient 0 of omega^(-a dlog x) omega^(-b dlog(1-x)).  The terms are
    nonnegative integers, so every partial sum is at most e (q-2) (pN-1)^2: exact while that is below 2^53.
    """
    q, (low, omega) = ring.field.q, tables
    b, J = np.arange(1, q - 1)[:, None], np.zeros((len(a), q - 2))
    for lo in range(0, q - 2, n):
        U = low[-a[:, None] * ring._dlog_x[lo : lo + n] % (q - 1)].reshape(len(a), -1)
        J += U @ omega[-b * ring._dlog_1mx[lo : lo + n] % (q - 1)].reshape(q - 2, -1).T
    J %= ring.pN  # exact on integers below 2^53
    return J.astype(np.int64)


def verify_stickelberger(ring: GaloisRing, seed: int = 0) -> int:
    """Jacobi valuation == carry count over admissible exponent pairs.

    Exhaustive when q <= STICKELBERGER_EXHAUSTIVE_Q: each chunk of rows a
    gets its Jacobi sums from _jacobi_chunk on two (q-1, e) tables built
    here from omega_table, checked in slices of n rows in lexicographic
    order, one carry_count a slice; exact while e (q-2) (pN-1)^2 < 2^53
    (at most 8.5e9, at (2, 5, 2)), else BoundExceededError first.  Otherwise
    STICKELBERGER_SAMPLE pairs drawn with the seed, summed by one
    jacobi_sum and checked in the order drawn with one carry_count.
    Returns the number of pairs checked.  Raises MismatchError on the
    first failing pair; a Jacobi sum that vanishes mod p^N counts as
    valuation N.
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
        if e * (q - 2) * (pN - 1) ** 2 >= 1 << 53:
            raise BoundExceededError(f"Jacobi tiles at q = {q} need e*(q-2)*(p^N-1)^2 < 2^53 to be exact in float64")
        omega = ring.omega_table()
        tables = (omega @ ring._times[:, :, 0] % pN).astype(np.float64), omega.astype(np.float64)
        ex, n = np.arange(1, q - 1), max(1, BATCH_BYTES // (16 * e * (q - 2)))  # V_x: half of BATCH_BYTES
        rows = max(1, BATCH_BYTES // (16 * (q - 2)))  # J and its int64 copy fill BATCH_BYTES
        def row_slices():  # each chunk's sums are freed before the next chunk's are made
            for a in np.split(ex, range(rows, q - 2, rows)):
                J = _jacobi_chunk(ring, a, n, tables)
                for i in range(0, len(a), n):
                    yield (*np.broadcast_arrays(a[i : i + n, None], ex), _valuations(J[i : i + n], p, N))
                del J
        chunks = row_slices()
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
    """Exponents -i mod q-1 of the blocks i in idx; row m of block i has exponent -(i + m*k)."""
    if not 0 <= idx.min() <= idx.max() <= P.k - 1:
        raise ValueError(f"block indices must lie in 0..k-1, got {idx.min()}..{idx.max()}")
    return -idx % (P.q - 1)


def _group_sums(ring: GaloisRing, idx: np.ndarray) -> np.ndarray:
    """(len(idx), ell, ell, ell) float64 W: W[b, c, tau, s] sums _K[-idx[b]*dlog x, s] over the x of group (c, tau).

    x not in {0, 1} is in group (c, tau) = (dlog(1-x), dlog x) mod ell.  One gather of _K rows per block,
    with x grouped once per call, in chunks of x and of blocks through one reused buffer of at
    most BATCH_BYTES, each chunk summed by group with np.add.reduceat over the groups it holds rows of.
    Exact: a group sums at most q-2 values of kappa < p^N < 2^31, below 2^47.
    """
    q, ell = ring.field.q, ring.field.params.ell
    exps, group = _row_residues(ring.field.params, idx), ring._dlog_1mx % ell * ell + ring._dlog_x % ell
    sizes = np.bincount(group, minlength=ell * ell)
    # grouped by masks: a sort of q-2 keys first touches numpy's sort kernels, 128-256 KiB more RSS
    dlx, ends = np.concatenate([ring._dlog_x[group == g] for g in range(ell * ell)]), np.cumsum(sizes)
    starts = ends - sizes
    rows = min(q - 2, max(1, BATCH_BYTES // (8 * ell)))  # the x of a chunk
    per = max(1, BATCH_BYTES // (8 * ell * rows))  # its blocks
    ex, buf, W = np.empty(per * rows, dtype=np.int64), np.empty(per * rows * ell), np.zeros((len(idx), ell * ell, ell))
    for lo in range(0, q - 2, rows):
        n = min(rows, q - 2 - lo)
        gs = np.flatnonzero(np.minimum(ends, lo + n) > np.maximum(starts, lo))  # groups with rows in the chunk
        for b in range(0, len(idx), per):
            e = exps[b : b + per, None]
            j = np.multiply(e, dlx[lo : lo + n], out=ex[: len(e) * n].reshape(len(e), n))
            j %= q - 1
            G = np.take(ring._K, j, axis=0, out=buf[: len(e) * n * ell].reshape(len(e), n, ell), mode="clip")
            W[b : b + per, gs] += np.add.reduceat(G, np.maximum(starts[gs], lo) - lo, axis=1)
    return W.reshape(-1, ell, ell, ell)


def _blocks(ring: GaloisRing, idx: np.ndarray) -> np.ndarray:
    """(len(idx), n, n) stack of ell*L, entries in Z/p^N, on the isotypic components i in idx.

    For i > 0 (n = ell), row m holds the image of the basis character-sum
    vector indexed by i + m*k: q on the diagonal and -J(T^r, T^(-nk)),
    r = -(i + m*k), in column m + n mod ell.  As r*dlog x = -i*dlog x - k*m*tau
    mod q-1 (k*ell = q-1), that Jacobi sum is the sum over (c, tau) of
    W[c, tau, (m*tau + n*c) mod ell] (_group_sums), folded over n.  idx = [0]
    gives the trivial-character component (n = ell+1) in the basis: all-ones
    vector, the zero-vertex indicator, then the subgroup-coset character sums.
    """
    P = ring.field.params
    ell, q, pN = P.ell, P.q, ring.pN
    W, m = _group_sums(ring, idx), np.arange(ell)
    c, tau = m[:, None], m
    out = np.empty((len(idx), ell, ell), dtype=np.int64)
    out[:, m, m] = q % pN
    for n in range(1, ell):  # exact: an entry sums at most q-2 values of kappa, like a group
        fold = -W[:, c, tau, (m[:, None, None] * tau + n * c) % ell].sum(axis=(2, 3))
        out[:, m, (m + n) % ell] = fold.astype(np.int64) % pN  # a float64 fancy store pages in one more cast kernel
    if idx[0] > 0:
        return out
    block = np.zeros((1, ell + 1, ell + 1), dtype=np.int64)
    block[0, 1, :] = pN - 1  # the image of the all-ones vector (row 0) is 0
    block[0, 1, 1] = q % pN
    block[0, 2:, :2] = 1, -q % pN
    block[0, 2:, 2:] = out[0, 1:, 1:]  # row j of block 0: exponent -j*k
    return block


def _valuations(M: np.ndarray, p: int, zero: int) -> np.ndarray:
    """p-adic valuation of every entry of M; `zero` for zero entries."""
    v = np.where(M == 0, zero, 0)
    while (step := (M % p == 0) & (M != 0)).any():
        v += step
        M = np.where(step, M // p, M)
    return v


def ring_divisor_valuations(blocks: np.ndarray, ring: GaloisRing) -> list[tuple[list[int], int]]:
    """Local Smith form of each block of an (nb, n, n) stack mod p^N: (valuations, zero count).

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
        g = M.reshape(len(live), -1)
        vmin = _valuations(np.gcd.reduce(g, axis=1), p, prec)
        going = vmin < prec
        live, M, g, vmin = live[going], M[going], g[going], vmin[going]
        if not len(live):
            break
        pv = np.array([p**v for v in vmin.tolist()], dtype=np.int64)
        # the first entry of valuation vmin is the first that p^(vmin+1) does not divide
        pos = (g % (p * pv)[:, None] != 0).argmax(axis=1)
        if vmin.any():
            M //= pv[:, None, None]
        shift[live] += vmin
        modulus = np.array([p ** (prec - s) for s in shift[live].tolist()], dtype=np.int64)
        # swap rows 0 and i0, and columns 0 and j0, to put the pivot in the corner
        at, m = np.arange(len(live)), n - t
        perm = np.tile(np.arange(m), (2, len(live), 1))
        perm[0, at, pos // m], perm[1, at, pos % m] = 0, 0
        perm[:, :, 0] = pos // m, pos % m
        M = M[at[:, None, None], perm[0, :, :, None], perm[1, :, None, :]]
        M = (M[:, :1, :1] * M[:, 1:, 1:] - M[:, 1:, :1] * M[:, :1, 1:]) % modulus[:, None, None]
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

    Each batch gathers the group sums of its own blocks; the blocks are
    built and eliminated in batches, the trivial block on its own.
    """
    P = ring.field.params
    idx = np.asarray(indices, dtype=np.int64)
    # about 2*ell^3 words a block: its group sums W (ell^3) and their gather in the fold over n (ell^3)
    per = max(1, BATCH_BYTES // (16 * P.ell**3))
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

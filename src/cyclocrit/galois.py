"""Galois ring arithmetic, Teichmuller lifts, Jacobi sums, and block checks.

GR(p^N, e) is modeled as coefficient vectors of length e with entries in
0..p^N-1, reduced modulo the same irreducible polynomial the field
tables use (lifted coefficientwise), so reduction mod p lands exactly on
the field module's representation.  Elements are numpy arrays whose
last axis is the e coefficients, a single element as much as a stack of
blocks, multiplied by a broadcast convolution followed by one
(2e-1) x e reduction matrix.  Jacobi sums are gathered from a table of
Teichmuller powers, any batch of exponent pairs at once; their p-adic
valuations realize carry counts (Stickelberger), which the verification
suite checks pair by pair, a batch per gather.

The Laplacian restricted to each multiplicative isotypic component is a
small matrix over this ring whose local Smith form the block checks
compare against the closed-form pattern.  Its off-diagonal entries are
J(T^a, T^(-nk)), n = 1..ell-1, and T^(-nk)(1-x) depends only on the coset
class c(x) = dlog(1-x) mod ell; so each block row is the class sums
S_c(a) (T^a(x) summed over x not in {0, 1} with c(x) = c) times a fixed
matrix of powers of omega^k.  The class sums obey S_c(p*r) = S_{p*c}(r):
x -> x^p permutes F_q minus {0, 1}, multiplies dlog x by p, and
multiplies c(x) by p because 1 - x^p = (1 - x)^p.  So one gather per
orbit of r -> p*r mod q-1 gives the class sums of every exponent (a
fixed sample of the others is gathered directly as a check), and all
blocks of one shape are eliminated together as one (nb, n, n, e) array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .carries import carry_count, min_carries
from .errors import MismatchError, PrecisionError
from .field import FieldTable

# Bytes of the largest array of one class-sum gather, one block batch or
# one batch of Jacobi sums: it bounds peak memory whatever q and the
# number of blocks or pairs.
BATCH_BYTES = 1 << 18
# Exponents that are not their orbit's representative, gathered directly
# to check the orbit identity on every run.
ORBIT_SAMPLE = 8


class GaloisRing:
    """Arithmetic context for GR(p^N, (ell-1)t) tied to a FieldTable."""

    def __init__(self, field: FieldTable):
        P = field.params
        self.field = field
        self.p = P.p
        self.e = P.ext_degree
        # resolves every valuation up to v_p(uv) = (ell-1)t + d with margin
        self.precision = P.ext_degree + P.d + 4
        self.pN = P.p**self.precision
        self.mod_poly = field.mod_poly
        q, ell, e, k = field.q, P.ell, self.e, P.k
        # A product of reduced elements sums at most 2e-1 terms below pN^2
        # per coefficient, and so does every other contraction here.
        self.dtype = object if (2 * e - 1) * self.pN**2 >= 1 << 62 else np.int64
        # _reduce[i] holds the coefficients of X^i modulo the lifted modulus
        red = np.zeros((2 * e - 1, e), dtype=self.dtype)
        red[:e] = np.eye(e, dtype=self.dtype)
        for i in range(e, 2 * e - 1):
            red[i, 1:] = red[i - 1, :-1]
            red[i] = (red[i] - red[i - 1, -1] * np.array(self.mod_poly, dtype=self.dtype)) % self.pN
        self._reduce = red
        # with b padded by e-1 zeros on each side, row i of padded[..., _shifts]
        # holds the coefficients of X^i * b: entry j is b[j - i]
        self._shifts = np.arange(2 * e - 1) - np.arange(e)[:, None] + e - 1
        # Every table is built here and never changed, so a ring can be
        # shared freely.  The Jacobi-sum tables run over x in F_q minus {0, 1},
        # sorted by the coset class c(x) = dlog(1-x) mod ell: class 0 holds
        # k-1 >= 1 elements (1-x != 1) and every other class k.
        self._omega_np = self.omega_table()
        dlog_1mx = np.array([int(field.dlog[field.sub(1, x)]) for x in range(2, q)], dtype=np.int64)
        by_class = np.argsort(dlog_1mx % ell, kind="stable")
        self._dlog_x = field.dlog[2:][by_class]
        self._dlog_1mx = dlog_1mx[by_class]
        self._class_starts = np.searchsorted(self._dlog_1mx % ell, np.arange(ell))
        # _row_map[c, j, (n-1)e + i] is coefficient i of zeta^(-nc) X^j, with
        # zeta = omega^k, so the class sums times it give the Jacobi row.
        powers = self._mul(self._omega_np[np.arange(ell) * k, None, :], red[:e])
        s = -np.arange(ell)[:, None] * np.arange(1, ell) % ell
        self._row_map = powers[s].transpose(0, 2, 1, 3).reshape(ell, e, (ell - 1) * e)

    # --- basic ring ops -------------------------------------------------
    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Broadcast product of coefficient arrays (last axis e), reduced mod pN.

        The convolution is one matmul of a against the e shifted copies
        X^i * b of b; the (2e-1) x e reduction matrix then takes X^i,
        i < 2e-1, back below degree e.
        """
        e = self.e
        padded = np.zeros(b.shape[:-1] + (3 * e - 2,), dtype=self.dtype)
        padded[..., e - 1 : 2 * e - 1] = b
        conv = (a[..., None, :] @ padded[..., self._shifts])[..., 0, :]
        conv %= self.pN
        out = conv @ self._reduce
        out %= self.pN
        return out

    def unit_inverse(self, a: np.ndarray, modulus) -> np.ndarray:
        """Inverses of the units in a (last axis e) modulo p-powers, by Newton lifting.

        Starts from the field inverse tables; `modulus` broadcasts against
        a[..., :1].  Each step doubles the number of correct p-adic digits.
        """
        field, powers = self.field, self.p ** np.arange(self.e, dtype=np.int64)
        idx = (a % self.p).astype(np.int64) @ powers
        inv = field.antilog[-field.dlog[idx] % (field.q - 1)]
        x = (inv[..., None] // powers % self.p).astype(self.dtype)
        correct = 1
        while correct < self.precision:
            y = -self._mul(a, x)
            y[..., 0] += 2
            x = self._mul(x, y) % modulus
            correct *= 2
        check = self._mul(a, x)
        check[..., 0] -= 1
        if (check % modulus).any():
            raise MismatchError(f"Newton inverse fails modulo p^k for some of {a.shape[:-1]} units")
        return x

    # --- Teichmuller lifts --------------------------------------------------
    def teichmuller_generator(self) -> np.ndarray:
        """Lift of the field generator fixed by x -> x^q, as an (e,) array."""
        q = self.field.q
        y = np.array(self.field.coeffs(self.field.generator), dtype=self.dtype)  # coefficientwise lift

        def frobenius(x):  # x^q by square-and-multiply
            r, n = np.eye(1, self.e, dtype=self.dtype)[0], q
            while n:
                if n & 1:
                    r = self._mul(r, x)
                x, n = self._mul(x, x), n >> 1
            return r

        for _ in range(self.precision + 2):
            y2 = frobenius(y)
            if np.array_equal(y2, y):
                return y
            y = y2
        raise PrecisionError(f"Teichmuller lift not fixed by x -> x^q within {self.precision + 1} steps")

    def omega_table(self) -> np.ndarray:
        """(q-1, e) array of all Teichmuller lifts omega^j, filled by doubling."""
        q = self.field.q
        w = self.teichmuller_generator()
        table = np.zeros((q - 1, self.e), dtype=self.dtype)
        table[0, 0] = 1
        n = 1
        while n < q - 1:  # w = omega^n here
            m = min(n, q - 1 - n)
            table[n : n + m] = self._mul(table[:m], w)
            w = self._mul(w, w)
            n += m
        if not np.array_equal(self._mul(table[-1], table[1]), table[0]):
            raise MismatchError(f"Teichmuller generator does not have order q-1 = {q - 1}")
        return table


# --- Jacobi sums ---------------------------------------------------------


def jacobi_sum(a, b, ring: GaloisRing) -> np.ndarray:
    """J(T^a, T^b) = sum over x in K of T^a(x) T^b(1-x), exactly mod p^N.

    a and b are broadcast exponent arrays; the result has shape
    (..., e).  Exponents are taken mod q-1; a literal 0 selects the
    all-ones character (nonzero multiples of q-1 select the character
    vanishing at zero), matching the usual boundary conventions.  Over
    x not in {0, 1} the sum is sum_r N(r) omega^r, where N(r) counts the
    x with a*dlog(x) + b*dlog(1-x) = r mod q-1: one bincount for all
    pairs, then one product with the Teichmuller table.
    """
    q = ring.field.q
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    idx = a.reshape(-1, 1) % (q - 1) * ring._dlog_x
    idx += b.reshape(-1, 1) % (q - 1) * ring._dlog_1mx
    idx %= q - 1
    idx += np.arange(a.size)[:, None] * (q - 1)  # pair j counts into bins j(q-1)..(j+1)(q-1)-1
    counts = np.bincount(idx.ravel(), minlength=a.size * (q - 1)).reshape(a.shape + (q - 1,))
    acc = counts.astype(ring.dtype, copy=False) @ ring._omega_np
    acc[..., 0] += ((a == 0).astype(np.int64) + (b == 0)).astype(ring.dtype)  # x = 1 and x = 0 terms
    return acc % ring.pN


def _gather_class_sums(ring: GaloisRing, rs: np.ndarray) -> np.ndarray:
    """(len(rs), ell, e) class sums S_c(r) mod pN, one gather per exponent r."""
    q, e, ell = ring.field.q, ring.e, ring.field.params.ell
    per = max(1, BATCH_BYTES // ((q - 2) * e * 8))
    out = np.zeros((len(rs), ell, e), dtype=ring.dtype)
    for lo in range(0, len(rs), per):
        idx = rs[lo : lo + per, None] * ring._dlog_x % (q - 1)
        out[lo : lo + per] = np.add.reduceat(ring._omega_np[idx], ring._class_starts, axis=1) % ring.pN
    return out


def _class_sums(ring: GaloisRing, rs: np.ndarray):
    """Lookup from residues in rs (mod q-1) to their class sums, (len, ell, e).

    Gathers only the least residue of each orbit of r -> p*r that meets
    rs.  With r = p^j * rep, S_c(r) = S_{p^j c mod ell}(rep).  Up to
    ORBIT_SAMPLE other residues of rs, spread evenly, are also gathered
    directly; any difference raises MismatchError.
    """
    P = ring.field.params
    q, p, e, ell = P.q, P.p, ring.e, P.ell
    cur = np.arange(q - 1, dtype=np.int64)
    rep, back = cur.copy(), np.zeros(q - 1, dtype=np.int64)
    for j in range(1, e):  # p^j * r = rep means r = p^(e-j) * rep
        cur = cur * p % (q - 1)
        better = cur < rep
        rep[better], back[better] = cur[better], e - j
    mult = np.array([pow(p, j, ell) for j in range(e)])[back]
    reps = np.flatnonzero(np.bincount(rep[rs], minlength=q - 1))
    sums = _gather_class_sums(ring, reps)
    at = np.searchsorted(reps, rep)

    def lookup(r: np.ndarray) -> np.ndarray:
        return sums[at[r][:, None], mult[r][:, None] * np.arange(ell) % ell]

    others = np.flatnonzero(np.bincount(rs[rep[rs] != rs], minlength=q - 1))
    n = min(ORBIT_SAMPLE, len(others))
    sample = others[np.arange(n) * (len(others) - 1) // max(n - 1, 1)]
    for r, direct, via in zip(sample.tolist(), _gather_class_sums(ring, sample), lookup(sample)):
        if not np.array_equal(direct, via):
            raise MismatchError(
                f"class sums of exponent {r} differ from those of its Frobenius orbit "
                f"representative {int(rep[r])}"
            )
    return lookup


def _jacobi_rows(ring: GaloisRing, sums: np.ndarray) -> np.ndarray:
    """(R, ell-1, e) Jacobi rows J(T^r, T^(-nk)), n = 1..ell-1, from (R, ell, e) class sums."""
    rows = np.zeros((len(sums), ring._row_map.shape[2]), dtype=ring.dtype)
    for c, zeta_map in enumerate(ring._row_map):
        rows = (rows + sums[:, c] @ zeta_map) % ring.pN
    return rows.reshape(len(sums), -1, ring.e)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    checked: int
    detail: str = ""


def verify_stickelberger(
    table: FieldTable,
    ring: GaloisRing | None = None,
    exhaustive_limit: int = 256,
    sample: int = 4000,
    seed: int = 0,
) -> CheckReport:
    """Jacobi valuation == carry count over admissible exponent pairs.

    Exhaustive (in lexicographic order) when q <= exhaustive_limit,
    otherwise a seeded sample; one jacobi_sum and one carry_count per
    batch of pairs.  Raises MismatchError on the first failing pair; a
    Jacobi sum that vanishes mod p^N counts as valuation N.
    """
    P = table.params
    ring = ring or GaloisRing(table)
    q = P.q
    per = max(1, BATCH_BYTES // (24 * (q - 1)))  # jacobi_sum's indices, one temporary and counts
    if q <= exhaustive_limit:  # lexicographic order, built a batch at a time
        total = (q - 2) ** 2
        batches = (np.array(np.divmod(np.arange(lo, min(lo + per, total)), q - 2)) + 1 for lo in range(0, total, per))
    else:
        rng, pairs, made = random.Random(seed), np.zeros((2, sample), dtype=np.int64), 0
        while made < sample:
            pair = rng.randrange(1, q - 1), rng.randrange(1, q - 1)
            if sum(pair) % (q - 1):
                pairs[:, made] = pair
                made += 1
        batches = (pairs[:, lo : lo + per] for lo in range(0, sample, per))
    checked = 0
    for a, b in batches:
        keep = (a + b) % (q - 1) != 0
        a, b = a[keep], b[keep]
        c = carry_count(a, b, P)
        v = _valuations(jacobi_sum(-a, -b, ring), P.p, ring.precision)
        if (bad := v != c).any():
            j = np.argmax(bad)
            raise MismatchError(f"Stickelberger fails at (a,b)=({a[j]},{b[j]}): valuation {v[j]} != carries {c[j]}")
        checked += len(a)
    return CheckReport(True, checked)


# --- isotypic blocks of the Laplacian -------------------------------------


def _row_residues(P, idx: np.ndarray) -> np.ndarray:
    """(len(idx), ell) exponents -(i + m*k) mod q-1 of the Jacobi rows of each block i."""
    if not 0 <= idx.min() <= idx.max() <= P.k - 1:
        raise ValueError(f"block indices must lie in 0..k-1, got {idx.min()}..{idx.max()}")
    return -(idx[:, None] + np.arange(P.ell) * P.k) % (P.q - 1)


def _blocks(table: FieldTable, ring: GaloisRing, idx: np.ndarray, lookup) -> np.ndarray:
    """(len(idx), n, n, e) stack of ell*L on the isotypic components i in idx.

    For i > 0 (n = ell), row m holds the image of the basis character-sum
    vector indexed by i + m*k: q on the diagonal, minus Jacobi sums
    elsewhere.  idx = [0] gives the trivial-character component (n =
    ell+1) in the basis: all-ones vector, the zero-vertex indicator, then
    the subgroup-coset character sums.
    """
    P = table.params
    ell, q, pN = P.ell, P.q, ring.pN
    jac = -_jacobi_rows(ring, lookup(_row_residues(P, idx).ravel())) % pN
    if idx[0] > 0:
        out = np.zeros((len(idx), ell, ell, ring.e), dtype=ring.dtype)
        m = np.arange(ell)
        out[:, m, m, 0] = q % pN
        out[:, m[:, None], (m[:, None] + np.arange(1, ell)) % ell] = jac.reshape(len(idx), ell, ell - 1, -1)
        return out
    out = np.zeros((1, ell + 1, ell + 1, ring.e), dtype=ring.dtype)
    out[0, 1, :, 0] = pN - 1  # the image of the all-ones vector (row 0) is 0
    out[0, 1, 1, 0] = q % pN
    for j in range(1, ell):
        out[0, 1 + j, :2, 0] = 1, -q % pN
        out[0, 1 + j, 1 + j, 0] = q % pN
        for n in range(1, ell):
            if (j + n) % ell:
                out[0, 1 + j, 1 + (j + n) % ell] = jac[j, n - 1]
    return out


def laplacian_block(table: FieldTable, ring: GaloisRing, i: int) -> np.ndarray:
    """(n, n, e) array of ell*L on the i-th isotypic component (0 is the trivial one)."""
    idx = np.array([i])
    return _blocks(table, ring, idx, _class_sums(ring, _row_residues(table.params, idx).ravel()))[0]


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
    inherit it), which makes the entry a unit; move it to the corner and
    replace the rest by its Schur complement.  Entries stay reduced mod
    p^avail, the precision left after the accumulated shift, so a
    nonzero entry has valuation below avail; a block stops once its
    remaining submatrix is zero.
    """
    p, prec = ring.p, ring.precision
    M = np.asarray(blocks, dtype=ring.dtype) % ring.pN
    nb, n = M.shape[:2]
    live, shift, rank = np.arange(nb), np.zeros(nb, dtype=np.int64), np.zeros(nb, dtype=np.int64)
    exps = np.zeros((nb, n), dtype=np.int64)
    for t in range(n):
        V = _valuations(M, p, prec).reshape(len(live), -1)
        pos = V.argmin(axis=1)
        vmin = V[np.arange(len(live)), pos]
        going = vmin < prec
        live, M, pos, vmin = live[going], M[going], pos[going], vmin[going]
        if not len(live):
            break
        shift[live] += vmin
        M = M // np.array([p**v for v in vmin.tolist()], dtype=ring.dtype)[:, None, None, None]
        modulus = np.array([p ** (prec - s) for s in shift[live].tolist()], dtype=ring.dtype)[:, None]
        # swap rows 0 and i0, and columns 0 and j0, to put the pivot in the corner
        at, m = np.arange(len(live)), n - t
        perm = np.tile(np.arange(m), (2, len(live), 1))
        perm[0, at, pos // m], perm[1, at, pos % m] = 0, 0
        perm[:, :, 0] = pos // m, pos % m
        M = M[at[:, None, None], perm[0, :, :, None], perm[1, :, None, :]]
        inv = ring.unit_inverse(M[:, 0, 0], modulus)
        factor = ring._mul(inv[:, None], M[:, 0, 1:]) % modulus[:, None]
        update = ring._mul(M[:, 1:, :1], factor[:, None])
        M = np.subtract(M[:, 1:, 1:], update, out=update)
        M %= modulus[:, None, None]
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


def _block_valuations(table: FieldTable, ring: GaloisRing, indices):
    """Yield (batch, [(valuations, zero count) per block]) over the increasing indices.

    Class sums come from one gather per Frobenius orbit; the blocks are
    built and eliminated in batches, the trivial block on its own.
    """
    P = table.params
    idx = np.asarray(indices, dtype=np.int64)
    lookup = _class_sums(ring, _row_residues(P, idx).ravel())
    # the Schur update's products and shifted copies of its factor row
    per = max(1, BATCH_BYTES // (8 * (2 * ring.e - 1) * P.ell * (P.ell + ring.e)))
    first = int(idx[0] == 0)  # the trivial block has a shape of its own
    batches = [idx[lo : lo + per] for lo in range(first, len(idx), per)]
    if first:
        batches.insert(0, idx[:1])
    for batch in batches:
        yield batch, ring_divisor_valuations(_blocks(table, ring, batch, lookup), ring)


def _check_blocks(table: FieldTable, batch: np.ndarray, found) -> None:
    want, want_zeros = expected_block_valuations(table, batch)
    for i, (exps, zeros), w in zip(batch.tolist(), found, want.tolist()):
        if sorted(exps) != w or zeros != want_zeros:
            raise MismatchError(
                f"block {i}: local Smith valuations {sorted(exps)} (zeros {zeros}) "
                f"!= expected {w} (zeros {want_zeros})"
            )


def verify_block(table: FieldTable, ring: GaloisRing, i: int) -> CheckReport:
    for found in _block_valuations(table, ring, [i]):
        _check_blocks(table, *found)
    return CheckReport(True, 1)


def verify_all_blocks(table: FieldTable, ring: GaloisRing | None = None) -> CheckReport:
    """Local Smith form of every isotypic block against the closed form.

    Raises MismatchError naming the lowest block index that fails.
    """
    ring = ring or GaloisRing(table)
    for found in _block_valuations(table, ring, range(table.params.k)):
        _check_blocks(table, *found)
    return CheckReport(True, table.params.k)


def block_p_multiplicities(table: FieldTable, ring: GaloisRing | None = None) -> dict[int, int]:
    """p-part multiplicities assembled from all block local Smith forms."""
    P = table.params
    hist: dict[int, int] = {}
    ring = ring or GaloisRing(table)
    for batch, found in _block_valuations(table, ring, range(P.k)):
        for i, (exps, zeros) in zip(batch.tolist(), found):
            expected_zeros = 1 if i == 0 else 0
            if zeros != expected_zeros:
                raise MismatchError(f"block {i} has {zeros} zero divisors, expected {expected_zeros}")
            for e in exps:
                hist[e] = hist.get(e, 0) + 1
    if sum(hist.values()) != P.q - 1:
        raise MismatchError(f"blocks give {sum(hist.values())} divisors, expected q-1 = {P.q - 1}")
    return hist

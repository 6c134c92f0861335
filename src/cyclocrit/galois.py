"""Galois ring arithmetic, Teichmuller lifts, Jacobi sums, and block checks.

GR(p^N, e) is modeled as coefficient tuples of length e with entries in
0..p^N-1, reduced modulo the same irreducible polynomial the field
tables use (lifted coefficientwise), so reduction mod p lands exactly on
the field module's representation.  Jacobi sums are evaluated through a
table of Teichmuller powers; their p-adic valuations realize carry
counts (Stickelberger), which the verification suite checks pairwise.
The Laplacian restricted to each multiplicative isotypic component is a
small matrix over this ring whose local Smith form the block checks
compare against the closed-form pattern.  Its off-diagonal entries are
J(T^a, T^(-nk)), n = 1..ell-1, and T^(-nk)(1-x) depends only on the coset
class dlog(1-x) mod ell; so each block row is one gather of Teichmuller
powers summed per class, times a fixed matrix of powers of omega^k
(jacobi_row).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .carries import carry_count, min_carries
from .errors import MismatchError, PrecisionError, ZeroElementError
from .field import FieldTable

Elem = tuple[int, ...]


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
        # Every table is built here and never changed, so a ring can be
        # shared freely.  The Jacobi-sum tables run over x in F_q minus {0, 1},
        # sorted by the coset class c(x) = dlog(1-x) mod ell: class 0 holds
        # k-1 >= 1 elements (1-x != 1) and every other class k.
        q, ell, e, k = field.q, P.ell, self.e, P.k
        self._omega = self.omega_table()
        self._omega_np = np.array(
            self._omega, dtype=object if self.pN * q >= (1 << 62) else np.int64
        )
        xs = [x for x in range(q) if x not in (0, 1)]
        dlog_x = np.array([int(field.dlog[x]) for x in xs], dtype=np.int64)
        dlog_1mx = np.array([int(field.dlog[field.sub(1, x)]) for x in xs], dtype=np.int64)
        by_class = np.argsort(dlog_1mx % ell, kind="stable")
        self._dlog_x = dlog_x[by_class]
        self._dlog_1mx = dlog_1mx[by_class]
        self._class_starts = np.searchsorted(self._dlog_1mx % ell, np.arange(ell))
        # _row_map[(n-1)e + i, ce + j] is coefficient i of zeta^(-nc) X^j, with
        # zeta = omega^k, so one product with the ell class sums gives the
        # Jacobi row.  It is exact in int64 while ell*e*pN^2 < 2^62.
        zeta_maps = [self._mul_matrix(self._omega[s * k]) for s in range(ell)]
        self._row_map = np.array(
            [
                [zeta_maps[(-n * c) % ell][i][j] for c in range(ell) for j in range(e)]
                for n in range(1, ell)
                for i in range(e)
            ],
            dtype=object if ell * e * self.pN * self.pN >= (1 << 62) else np.int64,
        )

    # --- basic ring ops -------------------------------------------------
    def zero(self) -> Elem:
        return (0,) * self.e

    def one(self) -> Elem:
        return (1,) + (0,) * (self.e - 1)

    def scalar(self, c: int) -> Elem:
        return (c % self.pN,) + (0,) * (self.e - 1)

    def add(self, a: Elem, b: Elem) -> Elem:
        pN = self.pN
        return tuple((x + y) % pN for x, y in zip(a, b))

    def neg(self, a: Elem) -> Elem:
        pN = self.pN
        return tuple(-x % pN for x in a)

    def sub(self, a: Elem, b: Elem) -> Elem:
        pN = self.pN
        return tuple((x - y) % pN for x, y in zip(a, b))

    def mul(self, a: Elem, b: Elem) -> Elem:
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

    def _mul_matrix(self, a: Elem) -> list[list[int]]:
        """e x e integer matrix of x -> a*x on coefficient vectors."""
        e = self.e
        cols = [self.mul(a, tuple(int(i == j) for i in range(e))) for j in range(e)]
        return [[cols[j][i] for j in range(e)] for i in range(e)]

    def pow(self, a: Elem, n: int) -> Elem:
        r = self.one()
        b = a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    # --- field interface --------------------------------------------------
    def lift(self, x: int) -> Elem:
        """Coefficientwise lift of a field element index."""
        return tuple(self.field.coeffs(x))

    def reduce_to_field(self, a: Elem) -> int:
        return self.field.from_coeffs(c % self.p for c in a)

    # --- valuations -------------------------------------------------------
    def valuation(self, a: Elem) -> int | None:
        """Smallest coefficient valuation; None when a = 0 mod p^precision.

        Valid because the extension is unramified: p^j * R meets the
        coefficient lattice exactly in coefficientwise multiples of p^j.
        """
        p = self.p
        best: int | None = None
        for c in a:
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                if best is None or v < best:
                    best = v
                    if best == 0:
                        return 0
        return best

    def divide_by_p(self, a: Elem, v: int = 1) -> Elem:
        pv = self.p**v
        if any(c % pv for c in a):
            raise MismatchError(f"{a} is not divisible by p^{v}")
        return tuple(c // pv for c in a)

    def unit_inverse(self, a: Elem, exponent: int) -> Elem:
        """Inverse of a unit modulo p^exponent by Newton lifting."""
        x0 = self.field.inv(self.reduce_to_field(a))
        x = self.lift(x0)
        pe = self.p**exponent
        correct = 1
        while correct < exponent:
            two = self.scalar(2)
            x = self.mul(x, self.sub(two, self.mul(a, x)))
            x = tuple(c % pe for c in x)
            correct *= 2
        if any(c % pe for c in self.sub(self.mul(a, x), self.one())):
            raise MismatchError(f"Newton inverse of {a} fails modulo p^{exponent}")
        return tuple(c % pe for c in x)

    # --- Teichmuller lifts --------------------------------------------------
    def teichmuller_generator(self) -> Elem:
        """Lift of the field generator fixed by x -> x^q."""
        q = self.field.q
        y = self.lift(self.field.generator)
        for _ in range(self.precision + 1):
            y2 = self.pow(y, q)
            if y2 == y:
                break
            y = y2
        if self.pow(y, q) != y:
            raise PrecisionError(
                f"Teichmuller lift not fixed by x -> x^q within {self.precision + 1} steps"
            )
        return y

    def omega_table(self) -> list[Elem]:
        """All Teichmuller lifts as powers of the lifted generator."""
        q = self.field.q
        w = self.teichmuller_generator()
        table = [self.one()]
        for _ in range(q - 2):
            table.append(self.mul(table[-1], w))
        if self.mul(table[-1], w) != self.one():
            raise MismatchError(f"Teichmuller generator does not have order q-1 = {q - 1}")
        return table

    def teichmuller(self, x: int) -> Elem:
        if x == 0:
            raise ZeroElementError("Teichmuller lift of zero")
        return self._omega[int(self.field.dlog[x])]


# --- Jacobi sums ---------------------------------------------------------


def _character_class(a: int, q: int) -> tuple[int, bool]:
    """(reduced exponent, acts-as-all-ones-at-zero).

    Exponent multiples of q-1 split into two conventional characters:
    the literal zero exponent is the everywhere-1 character, any other
    multiple is the unit-indicator character vanishing at 0.
    """
    r = a % (q - 1)
    return r, (a == 0)


def jacobi_sum(a: int, b: int, ring: GaloisRing) -> Elem:
    """J(T^a, T^b) = sum over x in K of T^a(x) T^b(1-x), exactly mod p^N.

    Exponents are taken mod q-1; a literal 0 selects the all-ones
    character (nonzero multiples of q-1 select the character vanishing
    at zero), matching the usual boundary conventions.
    """
    q = ring.field.q
    ra, a_ones = _character_class(a, q)
    rb, b_ones = _character_class(b, q)
    idx = (ra * ring._dlog_x + rb * ring._dlog_1mx) % (q - 1)
    acc = ring._omega_np[idx].sum(axis=0)
    extra = (1 if a_ones else 0) + (1 if b_ones else 0)  # x = 1 and x = 0 terms
    out = tuple((int(c) + (extra if i == 0 else 0)) % ring.pN for i, c in enumerate(acc))
    return out


def jacobi_row(a: int, ring: GaloisRing) -> list[Elem]:
    """[J(T^a, T^(-nk)) for n = 1..ell-1], exactly mod p^N, in one gather.

    T^(-nk) has order dividing ell, so T^(-nk)(1-x) = zeta^(-n c(x)) with
    zeta = omega^k and c(x) = dlog(1-x) mod ell.  Hence
    J(T^a, T^(-nk)) = sum_c zeta^(-nc) S_c(a), where the class sum S_c(a)
    adds T^a(x) over x not in {0, 1} with c(x) = c.  Exponent conventions
    are those of jacobi_sum.
    """
    q = ring.field.q
    ra, a_ones = _character_class(a, q)
    sums = np.add.reduceat(ring._omega_np[(ra * ring._dlog_x) % (q - 1)], ring._class_starts)
    sums[0, 0] += a_ones  # x = 0 term: T^a(0) T^(-nk)(1), and 1 lies in class 0
    sums = (sums % ring.pN).astype(ring._row_map.dtype).reshape(-1)
    rows = (ring._row_map @ sums) % ring.pN
    return [tuple(r) for r in rows.reshape(-1, ring.e).tolist()]


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

    Exhaustive when q <= exhaustive_limit, otherwise a seeded sample.
    Raises MismatchError on the first failing pair.
    """
    P = table.params
    ring = ring or GaloisRing(table)
    q = P.q
    if q <= exhaustive_limit:
        pairs = (
            (a, b)
            for a in range(1, q - 1)
            for b in range(1, q - 1)
            if (a + b) % (q - 1) != 0
        )
    else:
        rng = random.Random(seed)

        def gen():
            made = 0
            while made < sample:
                a = rng.randrange(1, q - 1)
                b = rng.randrange(1, q - 1)
                if (a + b) % (q - 1) == 0:
                    continue
                made += 1
                yield a, b

        pairs = gen()
    checked = 0
    for a, b in pairs:
        c = carry_count(a, b, P)
        v = ring.valuation(jacobi_sum(-a, -b, ring))
        if v != c:
            raise MismatchError(
                f"Stickelberger fails at (a,b)=({a},{b}): valuation {v} != carries {c}"
            )
        checked += 1
    return CheckReport(True, checked)


# --- isotypic blocks of the Laplacian -------------------------------------


def laplacian_block(table: FieldTable, ring: GaloisRing, i: int) -> list[list[Elem]]:
    """ell x ell matrix of ell*L restricted to the i-th isotypic component.

    Row m holds the image of the basis character-sum vector indexed by
    i + m*k: q on the diagonal, minus Jacobi sums elsewhere.  Requires
    1 <= i <= k-1.
    """
    P = table.params
    ell, k, q = P.ell, P.k, P.q
    if not 1 <= i <= k - 1:
        raise ValueError(f"block index must lie in 1..k-1, got {i}")
    rows = []
    for m in range(ell):
        jac = jacobi_row(-(i + m * k), ring)
        row = [ring.zero()] * ell
        row[m] = ring.scalar(q)
        for n in range(1, ell):
            row[(m + n) % ell] = ring.neg(jac[n - 1])
        rows.append(row)
    return rows


def laplacian_block_zero(table: FieldTable, ring: GaloisRing) -> list[list[Elem]]:
    """(ell+1) x (ell+1) matrix of ell*L on the trivial-character component.

    Basis order: all-ones vector, the zero-vertex indicator, then the
    subgroup-coset character sums.
    """
    P = table.params
    ell, k, q = P.ell, P.k, P.q
    size = ell + 1
    Z = ring.zero()
    rows = [[Z] * size for _ in range(size)]
    # image of the all-ones vector is 0
    rows[1][0] = ring.scalar(-1)
    rows[1][1] = ring.scalar(q)
    for m in range(1, ell):
        rows[1][1 + m] = ring.scalar(-1)
    for j in range(1, ell):
        jac = jacobi_row(-(j * k), ring)
        row = rows[1 + j]
        row[0] = ring.one()
        row[1] = ring.scalar(-q)
        row[1 + j] = ring.scalar(q)
        for m in range(1, ell):
            if (j + m) % ell == 0:
                continue
            col = 1 + (j + m) % ell
            row[col] = ring.neg(jac[m - 1])
    return rows


def ring_divisor_valuations(block: list[list[Elem]], ring: GaloisRing) -> tuple[list[int], int]:
    """Valuations of the local Smith form diagonal, plus count of zeros.

    Valuation-pivot elimination: divide out the minimum valuation of the
    remaining submatrix (all later divisors inherit it), then pivot on a
    unit, which costs no precision beyond the accumulated shift.
    """
    M = [row[:] for row in block]
    n = len(M)
    avail = ring.precision
    shift = 0
    exps: list[int] = []
    t = 0
    while t < n:
        vmin = None
        pos = None
        for i in range(t, n):
            for j in range(t, n):
                v = ring.valuation(M[i][j])
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
                    M[i][j] = ring.divide_by_p(M[i][j], vmin)
            shift += vmin
            avail -= vmin
            # rescan for a unit pivot after the shift
            pos = None
            for i in range(t, n):
                for j in range(t, n):
                    if ring.valuation(M[i][j]) == 0:
                        pos = (i, j)
                        break
                if pos:
                    break
        if avail <= 0:
            raise PrecisionError("ring precision exhausted during block elimination")
        i0, j0 = pos
        M[t], M[i0] = M[i0], M[t]
        for row in M:
            row[t], row[j0] = row[j0], row[t]
        pe = ring.p**avail

        def trunc(el: Elem) -> Elem:
            return tuple(c % pe for c in el)

        inv = ring.unit_inverse(trunc(M[t][t]), avail)
        for i in range(t + 1, n):
            factor = ring.mul(trunc(M[i][t]), inv)
            if any(c % pe for c in factor):
                for j in range(t, n):
                    M[i][j] = trunc(ring.sub(M[i][j], ring.mul(factor, trunc(M[t][j]))))
        for j in range(t + 1, n):
            factor = ring.mul(trunc(M[t][j]), inv)
            if any(c % pe for c in factor):
                for i in range(t, n):
                    M[i][j] = trunc(ring.sub(M[i][j], ring.mul(trunc(M[i][t]), factor)))
        exps.append(shift)
        t += 1
    return exps, n - t


def expected_block_valuations(table: FieldTable, i: int) -> tuple[list[int], int]:
    """Closed-form local Smith pattern for block i (0 means the trivial block)."""
    P = table.params
    half = P.ext_degree // 2
    if i == 0:
        vals = [0, 0] + [half] * (P.ell - 3) + [P.vp(P.u)]
        return sorted(vals), 1
    c = min_carries(i, P)
    vals = [c] + [half] * (P.ell - 2) + [P.vp(P.u * P.v) - c]
    return sorted(vals), 0


def _block_valuations(table: FieldTable, ring: GaloisRing, i: int) -> tuple[list[int], int]:
    """Local Smith valuations and zero count of block i (0 means the trivial block)."""
    block = (
        laplacian_block_zero(table, ring) if i == 0 else laplacian_block(table, ring, i)
    )
    return ring_divisor_valuations(block, ring)


def verify_block(table: FieldTable, ring: GaloisRing, i: int) -> CheckReport:
    exps, zeros = _block_valuations(table, ring, i)
    want, want_zeros = expected_block_valuations(table, i)
    if sorted(exps) != want or zeros != want_zeros:
        raise MismatchError(
            f"block {i}: local Smith valuations {sorted(exps)} (zeros {zeros}) "
            f"!= expected {want} (zeros {want_zeros})"
        )
    return CheckReport(True, 1)


def verify_all_blocks(table: FieldTable, ring: GaloisRing | None = None) -> CheckReport:
    """Local Smith form of every isotypic block against the closed form."""
    ring = ring or GaloisRing(table)
    for i in range(table.params.k):
        verify_block(table, ring, i)
    return CheckReport(True, table.params.k)


def block_p_multiplicities(table: FieldTable, ring: GaloisRing | None = None) -> dict[int, int]:
    """p-part multiplicities assembled from all block local Smith forms."""
    P = table.params
    hist: dict[int, int] = {}
    ring = ring or GaloisRing(table)
    for i in range(P.k):
        exps, zeros = _block_valuations(table, ring, i)
        expected_zeros = 1 if i == 0 else 0
        if zeros != expected_zeros:
            raise MismatchError(f"block {i} has {zeros} zero divisors, expected {expected_zeros}")
        for e in exps:
            hist[e] = hist.get(e, 0) + 1
    if sum(hist.values()) != P.q - 1:
        raise MismatchError(f"blocks give {sum(hist.values())} divisors, expected q-1 = {P.q - 1}")
    return hist

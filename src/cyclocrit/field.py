"""Explicit arithmetic for F_q with discrete-log tables.

Elements are indexed 0..q-1; the index encodes the coefficient vector of
the residue polynomial in base p (index = sum c_i p^i, little-endian).
Multiplication goes through discrete-log/antilog tables over a fixed
primitive element; addition is digitwise mod p on the index.  Both the
modulus polynomial (smallest monic irreducible in the index order) and
the generator (smallest index of full order) are deterministic, so
tables and any files derived from them are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import factorint
from .errors import BoundExceededError, MismatchError, ZeroElementError
from .params import Params

DEFAULT_MAX_Q = 1 << 16


def _poly_mul_mod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    """Product of coefficient vectors modulo (x^e + f, p); f holds the low coefficients."""
    e = len(f)
    res = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(2 * e - 2, e - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(e):
                res[i - e + j] = (res[i - e + j] - c * f[j]) % p
    return res[:e]


def _poly_pow_frobenius(f: tuple[int, ...], p: int, n: int) -> list[int]:
    """x^(p^n) mod (x^e + f) via n successive p-th powers."""
    e = len(f)
    cur = [0, 1] + [0] * (e - 2) if e > 1 else [(-f[0]) % p]
    for _ in range(n):
        out = [1] + [0] * (e - 1)
        base = cur
        m = p
        while m:
            if m & 1:
                out = _poly_mul_mod(out, base, f, p)
            base = _poly_mul_mod(base, base, f, p)
            m >>= 1
        cur = out
    return cur


def _poly_gcd_is_one(a: list[int], b: list[int], p: int) -> bool:
    """gcd over F_p[x]; b is understood as the full modulus x^e + (low coeffs)."""
    A = list(b) + [1]
    B = list(a)
    while any(B):
        while B and B[-1] == 0:
            B.pop()
        if not B:
            break
        inv = pow(B[-1], p - 2, p)
        R = A[:]
        while len(R) >= len(B) and any(R):
            while R and R[-1] == 0:
                R.pop()
            if len(R) < len(B):
                break
            c = (R[-1] * inv) % p
            sh = len(R) - len(B)
            for i in range(len(B)):
                R[sh + i] = (R[sh + i] - c * B[i]) % p
        A, B = B, R
    while A and A[-1] == 0:
        A.pop()
    return len(A) == 1


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test: x^(p^e) = x mod f and gcd(x^(p^(e/r)) - x, f) = 1 for primes r | e."""
    e = len(f)
    x = [0, 1] + [0] * (e - 2) if e > 1 else None
    if e == 1:
        return True
    top = _poly_pow_frobenius(f, p, e)
    if top != x:
        return False
    for r in factorint(e):
        g = _poly_pow_frobenius(f, p, e // r)
        diff = [(gi - xi) % p for gi, xi in zip(g, x)]
        if not _poly_gcd_is_one(diff, list(f), p):
            return False
    return True


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Low coefficients of the first monic irreducible x^e + ... in index order."""
    for v in range(p**e):
        coeffs = []
        vv = v
        for _ in range(e):
            coeffs.append(vv % p)
            vv //= p
        if coeffs[0] == 0:
            continue  # divisible by x
        if _is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass
class FieldTable:
    """F_q arithmetic tables plus the index-ell subgroup S.

    dlog maps a nonzero element index to its exponent with respect to the
    fixed generator; antilog is the inverse table.  S is the set of
    indices whose dlog is divisible by ell.
    """

    params: Params
    mod_poly: tuple[int, ...]
    generator: int
    dlog: np.ndarray
    antilog: np.ndarray
    subgroup: frozenset[int]
    _digit_table: np.ndarray | None = field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.params.q

    # --- element codec -------------------------------------------------
    def coeffs(self, x: int) -> tuple[int, ...]:
        p, e = self.params.p, self.params.ext_degree
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        p = self.params.p
        x = 0
        for c in reversed(list(coeffs)):
            x = x * p + c % p
        return x

    # --- arithmetic ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        p, e = self.params.p, self.params.ext_degree
        x = 0
        mult = 1
        for _ in range(e):
            x += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return x

    def neg(self, a: int) -> int:
        p, e = self.params.p, self.params.ext_degree
        x = 0
        mult = 1
        for _ in range(e):
            x += (-a % p) * mult
            a //= p
            mult *= p
        return x

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.antilog[(int(self.dlog[a]) + int(self.dlog[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElementError("inverse of zero")
        return int(self.antilog[(-int(self.dlog[a])) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise ZeroElementError("0 to a nonpositive power")
            return 0
        return int(self.antilog[(int(self.dlog[a]) * n) % (self.q - 1)])

    # --- subgroup ------------------------------------------------------
    def coset_index(self, x: int) -> int:
        """dlog(x) mod ell; 0 exactly on the connection subgroup."""
        if x == 0:
            raise ZeroElementError("coset index of zero")
        return int(self.dlog[x]) % self.params.ell

    # --- vectorized add (adjacency construction) ------------------------
    def digit_table(self) -> np.ndarray:
        """(e, q) array: row i holds base-p digit i of every index; built on first use."""
        if self._digit_table is None:
            p, e, q = self.params.p, self.params.ext_degree, self.q
            D = np.zeros((e, q), dtype=np.int64)
            v = np.arange(q, dtype=np.int64)
            for i in range(e):
                D[i] = v % p
                v //= p
            self._digit_table = D
        return self._digit_table

    def add_many(self, xs: np.ndarray, s: int) -> np.ndarray:
        """Index of x + s for every x in xs.

        Digit i of the sum is d_i(x) + s_i, less p exactly when
        d_i(x) >= p - s_i, so the index of x + s is the integer
        x + s - sum_i p^(i+1) [d_i(x) >= p - s_i].
        """
        p = self.params.p
        if p == 2:
            return xs ^ s
        D = self.digit_table()
        out = xs + s
        for i, si in enumerate(self.coeffs(s)):
            if si:
                np.subtract(out, p ** (i + 1), out=out, where=np.take(D[i], xs) >= p - si)
        return out


def build_field(params: Params, max_q: int = DEFAULT_MAX_Q) -> FieldTable:
    """Construct the full F_q table set for the given parameters.

    The dlog fill doubles as a correctness guard: it visits every nonzero
    index exactly once iff the modulus is irreducible and the generator
    has full order.  Any failed construction check raises MismatchError,
    also under python -O.
    """
    p, e, q, ell = params.p, params.ext_degree, params.q, params.ell
    if q > max_q:
        raise BoundExceededError(f"q = {q} exceeds the table bound {max_q}")

    mod_poly = smallest_irreducible(p, e)

    def idx_mul(a: int, b: int) -> int:
        ca, cb = [], []
        for _ in range(e):
            ca.append(a % p)
            a //= p
            cb.append(b % p)
            b //= p
        cr = _poly_mul_mod(ca, cb, mod_poly, p)
        x = 0
        for c in reversed(cr):
            x = x * p + c
        return x

    def idx_pow(a: int, n: int) -> int:
        r, b = 1, a
        while n:
            if n & 1:
                r = idx_mul(r, b)
            b = idx_mul(b, b)
            n >>= 1
        return r

    prime_divs = list(factorint(q - 1))
    generator = None
    for cand in range(2, q):
        if all(idx_pow(cand, (q - 1) // r) != 1 for r in prime_divs):
            generator = cand
            break
    if generator is None:
        raise MismatchError(f"no element of order {q - 1}: modulus {mod_poly} not irreducible?")

    dlog = np.full(q, -1, dtype=np.int64)
    antilog = np.zeros(q - 1, dtype=np.int64)
    x = 1
    for j in range(q - 1):
        if dlog[x] != -1:
            raise MismatchError(f"dlog fill revisits index {x} at step {j}: modulus {mod_poly} not irreducible?")
        dlog[x] = j
        antilog[j] = x
        x = idx_mul(x, generator)
    if x != 1:
        raise MismatchError(f"generator^{q - 1} = index {x}, not 1")

    subgroup = frozenset(int(antilog[j]) for j in range(0, q - 1, ell))
    table = FieldTable(
        params=params,
        mod_poly=mod_poly,
        generator=generator,
        dlog=dlog,
        antilog=antilog,
        subgroup=subgroup,
    )
    if len(subgroup) != params.k:
        raise MismatchError(f"connection subgroup has {len(subgroup)} elements, not k = {params.k}")
    if table.neg(1) not in subgroup:
        raise MismatchError("-1 must lie in the connection subgroup")
    return table

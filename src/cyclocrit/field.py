"""Explicit arithmetic for F_q with discrete-log tables.

Elements are indexed 0..q-1; the index encodes the coefficient vector of
the residue polynomial in base p (index = sum c_i p^i, little-endian).
Multiplication goes through discrete-log/antilog tables over a fixed
primitive element; addition is digitwise mod p on the index.  Both the
modulus polynomial (smallest monic irreducible in the index order) and
the generator (smallest index of full order) are deterministic, so
tables and any files derived from them are reproducible.

The tables are built from e x e matrices over F_p, e = (ell-1)t.
Multiplication by a fixed element is F_p-linear on the digit vectors,
so it is a polynomial in the companion matrix C of the modulus (the
matrix of multiplication by x).  A candidate modulus passes Berlekamp's
criterion on its Frobenius matrix; generator powers are matrix powers;
and the antilog table is filled by doubling, the digits of
g^n, ..., g^(2n-1) being one product of the matrix of g^n with those of
g^0, ..., g^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import factorint
from .errors import BoundExceededError, MismatchError
from .params import Params

DEFAULT_MAX_Q = 1 << 16
# Antilog entries mapped per product in the fill: its (chunk, e) int64
# temporaries stay at 64 KiB or less for every q up to DEFAULT_MAX_Q.
_FILL_CHUNK = 1 << 9


def _companion(f: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of multiplication by x on F_p[x]/(x^e + f); f holds the low coefficients."""
    e = len(f)
    C = np.eye(e, k=-1, dtype=np.int64)
    C[:, -1] = np.negative(f) % p
    return C


def _mat_pow(M: np.ndarray, n: int, p: int) -> np.ndarray:
    """M^n mod p by square-and-multiply."""
    R = np.eye(len(M), dtype=np.int64)
    while n:
        if n & 1:
            R = R @ M % p
        M, n = M @ M % p, n >> 1
    return R


def _rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank of M over F_p by row reduction."""
    M, rank = M % p, 0
    for j in range(M.shape[1]):
        rows = np.flatnonzero(M[rank:, j])
        if not len(rows):
            continue
        M[[rank, rank + rows[0]]] = M[[rank + rows[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, j]), -1, p) % p
        M[rank + 1 :] = (M[rank + 1 :] - np.outer(M[rank + 1 :, j], M[rank])) % p
        rank += 1
    return rank


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Berlekamp's criterion: rank Q = e and rank(Q - I) = e - 1.

    Q is the matrix of a -> a^p on F_p[x]/(x^e + f); its column j holds
    the digits of x^(pj).  Q is invertible iff the ring has no nilpotents,
    that is iff the modulus is squarefree, and the fixed points of
    a -> a^p then form one copy of F_p per irreducible factor.
    """
    e = len(f)
    x_p = _mat_pow(_companion(f, p), p, p)
    cols = [np.eye(e, dtype=np.int64)[0]]
    for _ in range(e - 1):
        cols.append(x_p @ cols[-1] % p)
    Q = np.array(cols).T
    return _rank_mod_p(Q, p) == e and _rank_mod_p(Q - np.eye(e, dtype=np.int64), p) == e - 1


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Low coefficients of the first monic irreducible x^e + ... in index order."""
    for v in range(p**e):
        coeffs = tuple(v // p**i % p for i in range(e))
        if coeffs[0] and _is_irreducible(coeffs, p):  # coeffs[0] = 0: divisible by x
            return coeffs
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

    def _digits(self, xs) -> np.ndarray:
        """Base-p digits of the indices xs, little-endian along a new last axis."""
        p = self.params.p
        return np.asarray(xs, dtype=np.int64)[..., None] // p ** np.arange(self.params.ext_degree) % p

    def _index(self, digits) -> np.ndarray:
        """Indices of the digit vectors (entries in 0..p-1) along the last axis of digits."""
        return np.asarray(digits, dtype=np.int64) @ self.params.p ** np.arange(self.params.ext_degree)

    # --- vectorized add (adjacency construction) ------------------------
    def digit_table(self) -> np.ndarray:
        """(e, q) array: row i holds base-p digit i of every index; built on first use."""
        if self._digit_table is None:
            p, e = self.params.p, self.params.ext_degree
            D = np.arange(self.q, dtype=np.int64) // p ** np.arange(e)[:, None]
            D %= p
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
        for i, si in enumerate(self._digits(s).tolist()):
            if si:
                np.subtract(out, p ** (i + 1), out=out, where=np.take(D[i], xs) >= p - si)
        return out


def build_field(params: Params) -> FieldTable:
    """Construct the full F_q table set for the given parameters.

    The antilog fill doubles as a correctness guard: it lists every
    nonzero index exactly once iff the modulus is irreducible and the
    generator has full order.  Any failed construction check raises
    MismatchError, also under python -O.
    """
    p, e, q, ell = params.p, params.ext_degree, params.q, params.ell
    if q > DEFAULT_MAX_Q:
        raise BoundExceededError(f"q = {q} exceeds the table bound {DEFAULT_MAX_Q}")

    mod_poly = smallest_irreducible(p, e)
    C = _companion(mod_poly, p)
    C_powers = np.array([_mat_pow(C, i, p) for i in range(e)])
    powers = p ** np.arange(e)

    def digits(xs) -> np.ndarray:  # one row of base-p digits per index
        return np.asarray(xs)[..., None] // powers % p

    def mul_matrix(c: int) -> np.ndarray:  # multiplication by the element of index c
        return np.tensordot(digits(c), C_powers, 1) % p

    divisors = [(q - 1) // r for r in factorint(q - 1)]
    generator = next(
        (c for c in range(2, q) if all(_mat_pow(mul_matrix(c), n, p)[:, 0] @ powers != 1 for n in divisors)),
        None,
    )
    if generator is None:
        raise MismatchError(f"no element of order {q - 1}: modulus {mod_poly} not irreducible?")

    antilog = np.zeros(q - 1, dtype=np.int64)
    antilog[0] = 1
    M, n = mul_matrix(generator), 1
    while n < q - 1:  # M multiplies by generator^n: it maps antilog[:n] onto antilog[n:2n]
        for lo in range(0, min(n, q - 1 - n), _FILL_CHUNK):
            hi = min(lo + _FILL_CHUNK, n, q - 1 - n)
            antilog[n + lo : n + hi] = digits(antilog[lo:hi]) @ M.T % p @ powers
        M, n = M @ M % p, 2 * n
    missing = np.bincount(antilog, minlength=q)[1:] == 0  # none missing: q-1 entries, each index once
    if missing.any():
        raise MismatchError(
            f"powers of generator {generator} miss index {np.argmax(missing) + 1}: modulus {mod_poly} not irreducible?"
        )
    last = digits(antilog[-1]) @ mul_matrix(generator).T % p @ powers
    if last != 1:
        raise MismatchError(f"generator^{q - 1} = index {last}, not 1")
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[antilog] = np.arange(q - 1)

    subgroup = frozenset(antilog[::ell].tolist())
    if len(subgroup) != params.k:
        raise MismatchError(f"connection subgroup has {len(subgroup)} elements, not k = {params.k}")
    if p - 1 not in subgroup:  # the index of -1
        raise MismatchError("-1 must lie in the connection subgroup")
    return FieldTable(
        params=params,
        mod_poly=mod_poly,
        generator=generator,
        dlog=dlog,
        antilog=antilog,
        subgroup=subgroup,
    )

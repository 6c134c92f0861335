"""Explicit arithmetic for F_q with discrete-log tables.

Elements are indexed 0..q-1; the index encodes the coefficient vector of
the residue polynomial in base p (index = sum c_i p^i, little-endian).
Multiplication goes through discrete-log/antilog tables over a fixed
primitive element; addition is digitwise mod p on the index.  Both the
modulus polynomial (smallest monic irreducible in the index order) and
the generator (smallest index of full order) are deterministic, so
tables and any files derived from them are reproducible.

All of it is arithmetic in Z/m[X]/(f), here at m = p: an element is its
coefficient vector (the digits of its index), and the product a * b is
a @ T(b), where T(b) = b @ W is the matrix of multiplication by b and
W[j, i] = X^(i+j) reduced.  The Galois ring in `galois` is the same
arithmetic at m = p^N.  A candidate modulus passes Berlekamp's criterion
on its Frobenius matrix; generator powers are powers of T(g); and one
fill (_powers) lists the powers of g, here and in `galois`: by doubling,
g^n, ..., g^(2n-1) being g^0, ..., g^(n-1) times T(g^n), then by chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import factorint
from .errors import BoundExceededError, MismatchError
from .params import Params

DEFAULT_MAX_Q = 1 << 16
# Bytes of the largest array in one batch of `graph` or `galois` work, at least one row.
BATCH_BYTES = 1 << 18


def _times_table(f: tuple[int, ...], m: int) -> np.ndarray:
    """(e, e, e) table W[j, i] = X^(i+j) mod (X^e + f, m); f holds the low coefficients."""
    e, f = len(f), np.array(f, dtype=np.int64)
    red = np.zeros((2 * e - 1, e), dtype=np.int64)
    red[:e] = np.eye(e, dtype=np.int64)
    for i in range(e, 2 * e - 1):  # X^i = X * X^(i-1), with X^e = -f
        red[i, 1:] = red[i - 1, :-1]
        red[i] = (red[i] - red[i - 1, -1] * f) % m
    return red[np.add.outer(np.arange(e), np.arange(e))]


def _times_matrix(b: np.ndarray, W: np.ndarray, m: int) -> np.ndarray:
    """T(b) = b @ W mod m for coefficient arrays b (last axis e): row j is X^j * b."""
    T = (b[..., None, None, :] @ W)[..., 0, :]
    T %= m
    return T


def _mul(a: np.ndarray, T: np.ndarray, m: int) -> np.ndarray:
    """Broadcast product a @ T mod m of coefficient arrays a and multiplication matrices T."""
    out = (a[..., None, :] @ T)[..., 0, :]
    out %= m
    return out


def _power(T: np.ndarray, n: int, m: int) -> np.ndarray:
    """T^n mod m for n >= 1, by repeated squaring; T(b)^n = T(b^n), whose row 0 is b^n."""
    if n == 1:
        return T
    R = _power(T @ T % m, n >> 1, m)
    return R @ T % m if n & 1 else R


def _powers(T: np.ndarray, n: int, m: int, what: str):
    """Yield b^0, ..., b^(n-1) mod m, T = T(b), in (B, e) int64 chunks of at most BATCH_BYTES or one row.

    The first chunk is filled by doubling, each later one is the last times T(b^B).  After the last
    chunk, MismatchError(what) unless b^n = 1: the one certificate of the order of b.
    """
    e, T_b = T.shape[-1], T
    B = min(n, 1 << (max(1, BATCH_BYTES // (8 * e)).bit_length() - 1))
    chunk = np.zeros((B, e), dtype=np.int64)
    chunk[0, 0] = j = 1
    while j < B:  # T = T(b^j) maps rows 0..j-1 onto rows j..2j-1
        chunk[j : 2 * j] = _mul(chunk[: min(j, B - j)], T, m)
        T, j = T @ T % m, 2 * j
    yield chunk
    for j in range(B, n, B):  # T = T(b^B)
        yield (chunk := _mul(chunk[: n - j], T, m))
    if not np.array_equal(_mul(chunk[-1], T_b, m), np.eye(1, e, dtype=np.int64)[0]):
        raise MismatchError(what)


def _digits(xs, p: int, e: int) -> np.ndarray:
    """Base-p digits of the indices xs, little-endian along a new last axis."""
    return np.asarray(xs, dtype=np.int64)[..., None] // p ** np.arange(e) % p


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

    Q is the matrix of a -> a^p on F_p[x]/(x^e + f); its row j holds
    the digits of (x^j)^p, and W[j] = T(x^j).  Q is invertible iff the
    ring has no nilpotents, that is iff the modulus is squarefree, and
    the fixed points of a -> a^p then form one copy of F_p per
    irreducible factor.
    """
    e = len(f)
    Q = _power(_times_table(f, p), p, p)[:, 0]
    return _rank_mod_p(Q, p) == e and _rank_mod_p(Q - np.eye(e, dtype=np.int64), p) == e - 1


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Low coefficients of the first monic irreducible x^e + ... in index order."""
    for v in range(p**e):
        coeffs = tuple(v // p**i % p for i in range(e))
        if coeffs[0] and _is_irreducible(coeffs, p):  # coeffs[0] = 0: divisible by x
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldTable:
    """F_q arithmetic tables plus the index-ell subgroup S.

    dlog maps a nonzero element index to its exponent with respect to the
    fixed generator; antilog is the inverse table.  S is the set of
    indices whose dlog is divisible by ell.  Frozen, with no cached tables.
    """

    params: Params
    mod_poly: tuple[int, ...]
    generator: int
    dlog: np.ndarray
    antilog: np.ndarray
    subgroup: frozenset[int]

    @property
    def q(self) -> int:
        return self.params.q

    # --- vectorized add (adjacency construction) ------------------------
    def add_many(self, xs: np.ndarray, s: int | np.ndarray) -> np.ndarray:
        """Index of x + s for every x in xs and s in s, broadcast together.

        Digit i of the sum is d_i(x) + s_i, less p exactly when
        d_i(x) >= p - s_i, so the index of x + s is the integer
        x + s - sum_i p^(i+1) [d_i(x) >= p - s_i].
        """
        p, e = self.params.p, self.params.ext_degree
        if p == 2:
            return xs ^ s
        out = xs + s
        xd, sd = _digits(xs, p, e), _digits(s, p, e)
        for i in range(e):
            np.subtract(out, p ** (i + 1), out=out, where=xd[..., i] >= p - sd[..., i])
        return out


def build_field(params: Params) -> FieldTable:
    """Construct the full F_q table set for the given parameters.

    The antilog fill doubles as a correctness guard: it lists every
    nonzero index exactly once, and _powers certifies generator^(q-1) = 1,
    iff the modulus is irreducible and the generator has full order.  Any
    failed construction check raises MismatchError, also under python -O.
    """
    p, e, q, ell = params.p, params.ext_degree, params.q, params.ell
    if q > DEFAULT_MAX_Q:
        raise BoundExceededError(f"q = {q} exceeds the table bound {DEFAULT_MAX_Q}")

    mod_poly = smallest_irreducible(p, e)
    W, powers = _times_table(mod_poly, p), p ** np.arange(e)
    divisors = [(q - 1) // r for r in factorint(q - 1)]
    Ts = (_times_matrix(_digits(c, p, e), W, p) for c in range(2, q))  # T(c) for c = 2, 3, ...
    generator = next(
        (c for c, T in enumerate(Ts, 2) if all(_power(T, n, p)[0] @ powers != 1 for n in divisors)), None
    )
    if generator is None:
        raise MismatchError(f"no element of order {q - 1}: modulus {mod_poly} not irreducible?")

    T_g = _times_matrix(_digits(generator, p, e), W, p)
    fill = _powers(T_g, q - 1, p, f"generator^{q - 1} is not 1: modulus {mod_poly} not irreducible?")
    antilog = np.concatenate([chunk @ powers for chunk in fill])
    missing = np.bincount(antilog, minlength=q)[1:] == 0  # none missing: q-1 entries, each index once
    if missing.any():
        raise MismatchError(
            f"powers of generator {generator} miss index {np.argmax(missing) + 1}: modulus {mod_poly} not irreducible?"
        )
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

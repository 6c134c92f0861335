"""Integer Smith normal form and derived cokernel descriptions.

This is the brute-force oracle side of the package: plain elimination
on the integer Laplacian.  The pivot is always a nonzero entry of
minimal absolute value in the remaining submatrix (ties broken by first
position in row-major order), with full row and column reduction and a
divisibility fix-up so the diagonal comes out as the invariant-factor
chain.  Without a modulus the entries are exact Python integers (the
sympy-checked reference); the Laplacian oracle runs it modulo 2uv in
int64, which is exact once the quadratic Laplacian identity has been
checked.  A p-local variant tracks only valuations working modulo p^B
with delayed reduction, which is what makes q up to 2^12 tractable.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .abelian import AbelianGroupDesc
from .errors import BoundExceededError, MismatchError
from .field import FieldTable
from .graph import laplacian
from .params import order_factorization

FULL_SNF_MAX_Q = 256
PLOCAL_MAX_Q = 1 << 12


def _find_min_pivot(M: np.ndarray, t: int):
    sub = M[t:, t:]
    A = np.abs(sub)
    nz = A != 0
    if not nz.any():
        return None
    A = np.where(nz, A, A.max() + 1)
    i, j = divmod(int(np.argmin(A)), A.shape[1])
    return t + i, t + j


def _swap_into_pivot(M: np.ndarray, t: int, i0: int, j0: int) -> None:
    if i0 != t:
        M[[t, i0], :] = M[[i0, t], :]
    if j0 != t:
        M[:, [t, j0]] = M[:, [j0, t]]


def _sym_mod(X, D):
    """Symmetric residues in (-D/2, D/2]; X itself when D is None."""
    if D is None:
        return X
    h = (D - 1) // 2
    return (X + h) % D - h


def smith_normal_form(mat, modulus: int | None = None) -> tuple[tuple[int, ...], int]:
    """Invariant factors (positive, divisibility chain) and cokernel free rank.

    Treats an n x m input as a map Z^m -> Z^n, so the free rank is
    n - (number of nonzero invariant factors).  Object-dtype numpy rows
    keep the row/column operations vectorized while entries stay exact
    Python integers.

    With a modulus D (int64 below 2^31) updated rows and columns go back
    to symmetric residues, which keep Euclid terminating, and each
    diagonal d becomes gcd(d, D).  That is the integer answer when every
    invariant factor divides D and is below it; one divisible by D would
    count as free rank.
    """
    M = _sym_mod(np.array([[int(x) for x in row] for row in mat], dtype=object), modulus)
    if modulus is not None and modulus < 1 << 31:
        M = M.astype(np.int64)
    n, m = M.shape
    divisors: list[int] = []
    t = 0
    while t < min(n, m):
        piv = _find_min_pivot(M, t)
        if piv is None:
            break
        _swap_into_pivot(M, t, *piv)
        while True:
            a = M[t, t]
            # clear the column below the pivot with rounded quotients (Euclid)
            col = M[t + 1:, t]
            nzr = np.nonzero(col)[0]
            while nzr.size:
                qv = (2 * col[nzr] + a) // (2 * a)
                hit = np.nonzero(qv)[0]
                if hit.size:
                    rows = nzr[hit] + (t + 1)
                    M[rows, t:] = _sym_mod(M[rows, t:] - np.outer(qv[hit], M[t, t:]), modulus)
                col = M[t + 1:, t]
                nzr = np.nonzero(col)[0]
                if nzr.size:  # a remainder beat the pivot; promote the smallest
                    i0 = int(nzr[int(np.argmin(np.abs(col[nzr])))]) + t + 1
                    M[[t, i0], :] = M[[i0, t], :]
                    a = M[t, t]
            # clear the row right of the pivot (column operations)
            row = M[t, t + 1:]
            nzc = np.nonzero(row)[0]
            col_dirtied = False
            while nzc.size:
                qv = (2 * row[nzc] + a) // (2 * a)
                hit = np.nonzero(qv)[0]
                if hit.size:
                    cols = nzc[hit] + (t + 1)
                    M[t:, cols] = _sym_mod(M[t:, cols] - np.outer(M[t:, t], qv[hit]), modulus)
                row = M[t, t + 1:]
                nzc = np.nonzero(row)[0]
                if nzc.size:
                    j0 = int(nzc[int(np.argmin(np.abs(row[nzc])))]) + t + 1
                    M[:, [t, j0]] = M[:, [j0, t]]
                    a = M[t, t]
                    col_dirtied = True
            if col_dirtied and (M[t + 1:, t] != 0).any():
                continue
            a = M[t, t]
            if abs(a) != 1:
                # invariant-factor chain: pivot must divide every later entry
                rem = M[t + 1:, t + 1:] % a
                bad = np.nonzero(rem)
                if bad[0].size:
                    M[t, t:] = _sym_mod(M[t, t:] + M[int(bad[0][0]) + t + 1, t:], modulus)
                    continue
            break
        divisors.append(abs(int(M[t, t])) if modulus is None else math.gcd(int(M[t, t]), modulus))
        t += 1
    for a, b in zip(divisors, divisors[1:]):
        if b % a:
            raise MismatchError(f"invariant factors {a}, {b} break the divisibility chain")
    return tuple(divisors), n - len(divisors)


def p_rank(mat, p: int) -> int:
    """Rank over F_p by Gaussian elimination (int64; p^2 must fit)."""
    M = np.array(mat, dtype=np.int64) % p
    n, m = M.shape
    rank = 0
    for j in range(m):
        col = M[rank:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        if i0 != rank:
            M[[rank, i0], :] = M[[i0, rank], :]
        inv = pow(int(M[rank, j]), -1, p)
        M[rank, :] = (M[rank, :] * inv) % p
        rows = np.nonzero(M[rank + 1:, j])[0] + rank + 1
        if rows.size:
            M[rows, :] = (M[rows, :] - np.outer(M[rows, j], M[rank, :])) % p
        rank += 1
        if rank == n:
            break
    return rank


def p_local_multiplicities(mat, p: int, precision: int) -> tuple[dict[int, int], int]:
    """Multiplicities of p^j among invariant factors, working mod p^precision.

    Returns ({j: multiplicity}, count of factors indistinguishable from
    zero at the available precision); for a graph Laplacian the latter is
    exactly the free rank provided precision exceeds the largest p-adic
    elementary divisor exponent plus the accumulated shift.  The pivot is
    the first unit of the current column, else of the current row, else
    the first unit of the remaining submatrix in row-major order.  Only
    the pivot row and column are reduced each step; the trailing block
    just grows by one product below p^(2B) per step, so it is reduced
    (and the minimum valuation divided out, the only precision loss) when
    neither the column nor the row has a unit.  int64 holds these delayed
    entries while n * p^(2B) < 2^62.
    """
    pB = p**precision
    n, m = np.shape(mat)
    if min(n, m) * pB * pB < 1 << 62:
        M = np.array(mat, dtype=np.int64) % pB
    else:
        M = np.array([[int(x) % pB for x in row] for row in mat], dtype=object)
    shift = 0
    exps: list[int] = []
    t = 0
    while t < min(n, m):
        mod = p ** (precision - shift)
        col, row = M[t:, t] % p != 0, M[t, t:] % p != 0
        if col.any() or row.any():
            i0, j0 = (int(np.argmax(col)), 0) if col.any() else (0, int(np.argmax(row)))
        else:
            sub = M[t:, t:]
            sub %= mod
            if not sub.any():
                break
            while not (units := sub % p != 0).any():  # ends: sub is nonzero mod p^(precision-shift)
                sub //= p
                shift += 1
            mod = p ** (precision - shift)
            i0, j0 = divmod(int(np.argmax(units)), sub.shape[1])
        _swap_into_pivot(M, t, t + i0, t + j0)
        inv = pow(int(M[t, t]) % mod, -1, mod)
        colmul = (M[t + 1:, t] % mod * inv) % mod
        M[t + 1:, t + 1:] -= np.outer(colmul, M[t, t + 1:] % mod)
        exps.append(shift)
        t += 1
    return dict(Counter(exps)), min(n, m) - t


def laplacian_p_multiplicities(
    table: FieldTable, p: int | None = None, margin: int = 5
) -> dict[int, int]:
    """p-part elementary divisor multiplicities of the Laplacian, p-local mode.

    The torsion of the cokernel is annihilated by u*v (a consequence of
    the quadratic Laplacian identity that verify_srg checks), so no
    elementary divisor exponent can exceed v_p(u*v); that bounds the
    precision needed for any prime, not just the field characteristic.
    """
    P = table.params
    p = P.p if p is None else p
    if P.q > PLOCAL_MAX_Q:
        raise BoundExceededError(f"q = {P.q} exceeds the p-local bound {PLOCAL_MAX_Q}")
    peak = 0
    uv = P.u * P.v
    while uv % p == 0:
        uv //= p
        peak += 1
    hist, zeros = p_local_multiplicities(laplacian(table), p, peak + margin)
    if zeros != 1 or sum(hist.values()) != P.q - 1:
        raise MismatchError(f"p-local SNF at p={p}: free rank {zeros}, {sum(hist.values())} factors")
    return hist


def critical_group_by_snf(table: FieldTable, max_q: int = FULL_SNF_MAX_Q) -> AbelianGroupDesc:
    """Cokernel of the Laplacian by full SNF modulo 2uv (the oracle path).

    The reduction is exact only after L is checked: zero row and column
    sums and (L - uI)(L - vI) = mu*J.  Then every y with sum 0 has
    uv*y = -L(L - (u+v)I)y in im L, so uv kills the torsion and each
    invariant factor divides uv < 2uv.
    """
    P = table.params
    if P.q > max_q:
        raise BoundExceededError(f"q = {P.q} exceeds the full-SNF bound {max_q}")
    L = laplacian(table)
    I = np.eye(P.q, dtype=np.int64)
    if L.sum(axis=0).any() or L.sum(axis=1).any() or ((L - P.u * I) @ (L - P.v * I) != P.mu).any():
        raise MismatchError("Laplacian fails zero line sums or (L-uI)(L-vI) = mu*J")
    factors, free_rank = smith_normal_form(L, modulus=2 * P.u * P.v)
    if free_rank != 1:
        raise MismatchError(f"full SNF: Laplacian corank {free_rank}, expected 1")
    group = AbelianGroupDesc.from_invariant_factors(factors, free_rank=1)
    if group.order_factorization() != order_factorization(P):
        raise MismatchError("full SNF: torsion order differs from the spanning-tree count")
    return group


def critical_group_by_local_snf(table: FieldTable) -> AbelianGroupDesc:
    """Cokernel assembled prime by prime with the p-local elimination.

    Still a brute-force route (dense elimination on the integer
    Laplacian), just executed once per prime dividing the group order;
    used where full integer SNF would be slow.
    """
    order = order_factorization(table.params)
    entries = []
    for prime in order:
        hist = laplacian_p_multiplicities(table, p=prime)
        entries.extend((prime, j, m) for j, m in hist.items() if j > 0)
    group = AbelianGroupDesc.from_prime_powers(entries, free_rank=1)
    if group.order_factorization() != order:
        raise MismatchError("p-local SNF: torsion order differs from the spanning-tree count")
    return group

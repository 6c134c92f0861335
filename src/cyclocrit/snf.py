"""Integer Smith normal form and derived cokernel descriptions.

This is the brute-force oracle side of the package: plain elimination on
the integer Laplacian.  The pivot is always a nonzero entry of minimal
absolute value in the remaining submatrix (ties broken by first position
in row-major order); one Euclid routine clears its column by row
operations and, on the transpose, its row by column operations; a
divisibility fix-up makes the diagonal the invariant-factor chain.
Without a modulus the entries are exact Python integers in object-dtype
rows (the sympy-checked reference); the Laplacian oracle runs it modulo
2uv on int64 residues, which is exact once the quadratic Laplacian
identity has been checked.  A p-local variant tracks only valuations,
working modulo p^B on balanced residues held exactly in float64: pending
pivots are applied to the trailing block as one BLAS dgemm per panel of
rows (the delayed updates of FFLAS-FFPACK, Dumas, Giorgi & Pernet, ACM
TOMS 35(3), 2008), which is what makes q up to 2^12 tractable.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .abelian import AbelianGroupDesc
from .errors import BoundExceededError, MismatchError
from .field import FieldTable
from .graph import laplacian
from .params import order_factorization, p_adic_valuation

FULL_SNF_MAX_Q = 256
PLOCAL_MAX_Q = 1 << 12
FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
PANEL_ROWS = 128  # rows per flush, reduction and scan step through one scratch buffer


def _find_min_pivot(M: np.ndarray, t: int):
    """Row-major first entry of least nonzero |x| in M[t:, t:], or None if all are zero."""
    A = np.abs(M[t:, t:])
    A -= 1  # a zero becomes -1: the largest uint64 on int64 rows, masked on object rows
    i = int(np.argmin(A.view(np.uint64) if A.dtype != object else np.where(A < 0, A.max() + 1, A)))
    if A.flat[i] < 0:
        return None
    i, j = divmod(i, A.shape[1])
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


def _clear(M: np.ndarray, t: int, modulus: int | None) -> bool:
    """Clear column t below the pivot by Euclid row operations; True if a row swapped into row t.

    A remainder that beats the pivot is swapped into row t and the clear
    goes on.  A row operation rewrites only the columns where row t is
    nonzero: by index when under half of the m - t left, else as a slice.
    On M.T it clears row t by column operations.
    """
    swapped, m = False, M.shape[1]
    col = M[t + 1 :, t]
    nzr = np.nonzero(col)[0]
    while nzr.size:
        a = M[t, t]
        qv = (2 * col[nzr] + a) // (2 * a)
        hit = np.nonzero(qv)[0]
        if hit.size:
            rows, cols = nzr[hit] + (t + 1), np.flatnonzero(M[t, t:]) + t
            if 2 * cols.size < m - t:
                rows = rows[:, None]
            else:
                cols = slice(t, None)
            M[rows, cols] = _sym_mod(M[rows, cols] - np.outer(qv[hit], M[t, cols]), modulus)
        nzr = np.nonzero(col)[0]
        if nzr.size:  # promote the smallest remainder
            i0 = int(nzr[int(np.argmin(np.abs(col[nzr])))]) + t + 1
            M[[t, i0], :] = M[[i0, t], :]
            swapped = True
    return swapped


def smith_normal_form(mat, modulus: int | None = None) -> tuple[tuple[int, ...], int]:
    """Invariant factors (positive, divisibility chain) and cokernel free rank.

    Treats an n x m input as a map Z^m -> Z^n, so the free rank is
    n - (number of nonzero invariant factors).  Entries are exact Python
    integers in object-dtype rows, or int64 under a modulus D below 2^31
    (read straight from an integer array).  With D, updated rows and
    columns go back to symmetric residues, which keep Euclid terminating,
    and each diagonal d becomes gcd(d, D).  That is the integer answer
    when every invariant factor divides D and is below it; one divisible
    by D would count as free rank.

    Each pivot step runs _clear on M, then on M.T, and repeats while the
    second run swapped a column in and left column t nonzero below the
    pivot.  So a column operation reaches only the rows where column t is
    nonzero (row t alone while column t is clear); the others would
    subtract q*0 from a reduced residue.  The divisibility scan is skipped
    when |pivot| equals the last value c whose scan passed and c divides D
    (or there is no D): that scan left every trailing entry a multiple of
    c, and later row and column operations, fix-ups and reductions modulo
    D keep it one.
    """
    M = np.asarray(mat)
    small = modulus is not None and modulus < 1 << 31
    if not (small and M.dtype.kind in "iu"):
        M = np.array([[int(x) for x in row] for row in mat], dtype=object)
    M = _sym_mod(M % modulus if small else M, modulus)
    if small:
        M = M.astype(np.int64)
    n, m = M.shape
    divisors: list[int] = []
    checked = 0  # the last pivot value whose divisibility scan passed
    t = 0
    while t < min(n, m):
        piv = _find_min_pivot(M, t)
        if piv is None:
            break
        _swap_into_pivot(M, t, *piv)
        while True:
            _clear(M, t, modulus)
            if _clear(M.T, t, modulus) and (M[t + 1 :, t] != 0).any():
                continue  # a column swap refilled column t
            a = abs(M[t, t])
            if a != 1 and not (a == checked and (modulus is None or modulus % a == 0)):
                # invariant-factor chain: pivot must divide every later entry
                rem = M[t + 1:, t + 1:] % a
                bad = np.nonzero(rem)
                if bad[0].size:
                    M[t, t:] = _sym_mod(M[t, t:] + M[int(bad[0][0]) + t + 1, t:], modulus)
                    continue
                checked = a
            break
        divisors.append(abs(int(M[t, t])) if modulus is None else math.gcd(int(M[t, t]), modulus))
        t += 1
    for a, b in zip(divisors, divisors[1:]):
        if b % a:
            raise MismatchError(f"invariant factors {a}, {b} break the divisibility chain")
    return tuple(divisors), n - len(divisors)


def _block_width(n: int, mod: int) -> int:
    """Pending pivots per dgemm: n // 16, at least 16, and b*mod^2 + mod < 2^53.

    Balanced residues are at most mod/2, so a flush sums at most
    b*mod^2/4 + mod/2 in magnitude; the bound keeps a factor 4 of slack
    for the last-ulp drift of the rint reduction.  Raises
    BoundExceededError when not even b = 1 fits.
    """
    b = min((FLOAT_EXACT - 1 - mod) // (mod * mod), max(16, n // 16))
    if b < 1:
        raise BoundExceededError(f"p-local modulus {mod}: mod^2 + mod reaches 2^53, past exact float64")
    return b


def _reduce(X: np.ndarray, mod: int, tmp: np.ndarray) -> None:
    """X -= mod * rint(X / mod) in place: balanced residues, congruence exact."""
    np.divide(X, mod, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= mod
    X -= tmp


def _reduced(x: np.ndarray, mod: int) -> np.ndarray:
    return x - mod * np.rint(x / mod)


def _is_unit(x: np.ndarray, p: int) -> np.ndarray:
    return np.rint(x / p) * p != x


def p_local_multiplicities(mat, p: int, precision: int, out: np.ndarray | None = None) -> tuple[dict[int, int], int]:
    """Multiplicities of p^j among invariant factors, working mod p^precision.

    Returns ({j: multiplicity}, count of factors indistinguishable from
    zero at the available precision).  A factor p^j with j < precision is
    read exactly; one with j >= precision, or a free summand, reads as
    zero.  Treats an n x m input as a map Z^m -> Z^n and stops after
    min(n, m) pivots.

    Entries are balanced residues mod p^(precision - shift), exact in the
    float64 array out (fresh when None; loaded a panel of rows at a time,
    so it may be mat's memory).  Up to b pivots stay pending in n x b and
    b x m buffers (the LU multipliers and pivot rows since the last flush);
    column t and the pivot row are read through one gemv against them, and
    a flush applies them to the trailing block as one dgemm per panel of
    PANEL_ROWS rows, then reduces.  Exactness needs b*mod^2 + mod < 2^53
    (_block_width); a precision past it raises BoundExceededError first.

    The pivot is the first unit of column t; else the first unit of row
    t; else the first unit of the first of the next b columns that held a
    unit at the last flush, probed in batches of 1, 2, 4, ... columns with
    one gemm each; else the pending pivots are flushed, and the trailing
    block is divided by p (shift += 1, the only precision loss) while it
    has no unit.  Every flush also refreshes the list of columns holding
    a unit.  Any unit pivot gives the same valuations, so the pivot rule
    only costs time.
    """
    M = np.asarray(mat)
    n, ncols = M.shape
    mod = p**precision
    b = _block_width(n, mod)
    A = np.empty(M.shape) if out is None else out
    L = np.empty((n, b))
    U = np.empty((b, ncols))
    flat = np.empty(min(n, PANEL_ROWS) * ncols)
    flat_units = np.empty(flat.size, dtype=bool)

    def panels(t):
        for r0 in range(t, n, PANEL_ROWS):
            X = A[r0 : r0 + PANEL_ROWS, t:]
            yield r0, X, flat[: X.size].reshape(X.shape)

    for r0, X, S in panels(0):
        X[...] = M[r0 : r0 + PANEL_ROWS] % mod
        _reduce(X, mod, S)

    def flush(t, k):
        """Apply the k pending pivots to the trailing block; return its columns holding a unit."""
        found = np.zeros(ncols - t, dtype=bool)
        for r0, X, S in panels(t):
            if k:
                np.matmul(L[r0 : r0 + len(X), :k], U[:k, t:], out=S)
                X -= S
                _reduce(X, mod, S)
            np.divide(X, p, out=S)
            np.rint(S, out=S)
            S *= p
            units = flat_units[: X.size].reshape(X.shape)
            np.not_equal(S, X, out=units)
            found |= units.any(axis=0)
        return found

    rank_cap = min(n, ncols)
    cand = np.zeros(ncols, dtype=bool)  # columns that held a unit at the last flush
    exps: list[int] = []
    shift = k = t = 0
    while t < rank_cap:
        col = _reduced(A[t:, t] - L[t:, :k] @ U[:k, t], mod)
        units, row = _is_unit(col, p), None
        if not units.any():
            row = _reduced(A[t, t:] - L[t, :k] @ U[:k, t:], mod)
            later = np.flatnonzero(_is_unit(row, p))[:1] + t
            if not later.size:
                row, later = None, np.flatnonzero(cand[t + 1 :])[:b] + (t + 1)
            width = 1
            while later.size:
                js, later, width = later[:width], later[width:], 2 * width
                C = _reduced(A[t:, js] - L[t:, :k] @ U[:k, js], mod)
                C_units = _is_unit(C, p)
                f = int(np.argmax(C_units.any(axis=0)))
                cand[js[: f + 1]] = False
                if C_units[:, f].any():
                    j, col, units = int(js[f]), C[:, f], C_units[:, f]
                    A[t:, [t, j]] = A[t:, [j, t]]
                    U[:k, [t, j]] = U[:k, [j, t]]
                    if row is not None:
                        row[[0, j - t]] = row[[j - t, 0]]
                    break
            else:
                found, k = flush(t, k), 0
                while not found.any():
                    if not any(X.any() for _, X, _ in panels(t)):
                        return dict(Counter(exps)), rank_cap - t
                    for _, X, _ in panels(t):
                        X /= p
                    shift += 1
                    mod //= p
                    found = flush(t, 0)
                cand[t:] = found
                continue
        i = t + int(np.argmax(units))
        if i != t:
            A[[t, i], t:] = A[[i, t], t:]
            L[[t, i], :k] = L[[i, t], :k]
            col[[0, i - t]] = col[[i - t, 0]]
        U[k, t:] = row if row is not None else _reduced(A[t, t:] - L[t, :k] @ U[:k, t:], mod)
        inv = pow(int(col[0]) % mod, -1, mod)
        L[t + 1 :, k] = _reduced(col[1:] * inv, mod)
        exps.append(shift)
        k += 1
        t += 1
        if k == b:
            cand[t:], k = flush(t, k), 0
    return dict(Counter(exps)), rank_cap - t


def laplacian_p_multiplicities(table: FieldTable, p: int | None = None) -> dict[int, int]:
    """p-part elementary divisor multiplicities of the Laplacian, p-local mode.

    Works at precision v_p(u*v) + 1.  If L is the Laplacian, the torsion
    of its cokernel is annihilated by u*v (a consequence of the quadratic
    Laplacian identity that verify_srg checks), so every elementary
    divisor exponent is at most v_p(u*v), for any prime p, not just the
    field characteristic, and is read exactly at that precision.  A wrong
    L whose exponents go past the bound cannot pass for a right one: at
    this precision such a factor reads as an extra zero, and the free
    rank check (exactly one zero) raises MismatchError.
    """
    P = table.params
    p = P.p if p is None else p
    precision = p_adic_valuation(P.u * P.v, p) + 1
    _block_width(P.q, p**precision)  # refuses a precision past exact float64 before L is allocated
    L = laplacian(table)
    # L's rows become their float64 residues in place: one q x q matrix, not two
    hist, zeros = p_local_multiplicities(L, p, precision, out=L.view(np.float64))
    if zeros != 1 or sum(hist.values()) != P.q - 1:
        raise MismatchError(f"p-local SNF at p={p}: free rank {zeros}, {sum(hist.values())} factors")
    return hist


def critical_group_by_snf(table: FieldTable) -> AbelianGroupDesc:
    """Cokernel of the Laplacian by full SNF modulo 2uv (the oracle path).

    The reduction is exact only after L is checked: zero row and column
    sums and (L - uI)(L - vI) = mu*J.  Then every y with sum 0 has
    uv*y = -L(L - (u+v)I)y in im L, so uv kills the torsion and each
    invariant factor divides uv < 2uv.  The product runs in float64
    (BLAS), exactly: every partial sum is an integer of magnitude at most
    q*(k+|u|)*(k+|v|), below 2^53 for q <= FULL_SNF_MAX_Q.
    """
    P = table.params
    if P.q > FULL_SNF_MAX_Q:
        raise BoundExceededError(f"q = {P.q} exceeds the full-SNF bound {FULL_SNF_MAX_Q}")
    L = laplacian(table)
    Lf, I = L.astype(np.float64), np.eye(P.q)
    if L.sum(axis=0).any() or L.sum(axis=1).any() or ((Lf - P.u * I) @ (Lf - P.v * I) != P.mu).any():
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


def bruteforce_route(q: int):
    """(check label, route on a table) of the dense oracle at q, or BoundExceededError past PLOCAL_MAX_Q."""
    if q > PLOCAL_MAX_Q:
        raise BoundExceededError(f"q = {q} exceeds the p-local bound {PLOCAL_MAX_Q}")
    if q <= FULL_SNF_MAX_Q:
        return "bruteforce:full-snf", critical_group_by_snf
    return "bruteforce:p-local-snf", critical_group_by_local_snf

"""Cayley graph construction and strongly-regular identity checks.

The vertex set is F_q in the field module's index order; x ~ y iff
y - x lies in the connection subgroup S.  `adjacency` and `laplacian`
build dense q x q int64 matrices for the eliminations and the exports,
and refuse before allocating once one such matrix would exceed
`DENSE_MAX_BYTES`.  `verify_srg` never forms a q x q array: the graph
is a Cayley graph, so it checks every identity on row 0, in O(q) memory,
and takes that row of A^2 from one DFT pair over the additive group.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError, MismatchError, PrecisionError
from .field import BATCH_BYTES, FieldTable

# Largest dense q x q int64 matrix: 256 MiB holds q = 4096 (the p-local
# bound, 128 MiB) and refuses q = 2^14 (2 GiB per matrix).
DENSE_MAX_BYTES = 1 << 28


def _refuse_dense(q: int) -> None:
    """BoundExceededError when one dense q x q int64 matrix would exceed DENSE_MAX_BYTES."""
    if (nbytes := q * q * 8) > DENSE_MAX_BYTES:
        raise BoundExceededError(
            f"a dense {q}x{q} int64 matrix needs {nbytes} bytes, over the bound "
            f"DENSE_MAX_BYTES = {DENSE_MAX_BYTES}"
        )


def adjacency(table: FieldTable) -> np.ndarray:
    q = table.q
    _refuse_dense(q)
    A = np.zeros((q, q), dtype=np.int64)
    S = np.array(sorted(table.subgroup), dtype=np.int64)
    rows = max(1, BATCH_BYTES // (8 * len(S)))  # one (rows, k) int64 block of column indices
    for x0 in range(0, q, rows):  # row x has its ones in the columns x + S
        xs = np.arange(x0, min(x0 + rows, q), dtype=np.int64)[:, None]
        A[xs, table.add_many(xs, S)] = 1
    return A


def laplacian(table: FieldTable) -> np.ndarray:
    L = adjacency(table)
    np.negative(L, out=L)
    np.fill_diagonal(L, table.params.k)
    return L


def verify_srg(table: FieldTable) -> None:
    """Check the strongly-regular parameter identities exactly.

    Verifies the basic shape of A (symmetric 0/1, zero diagonal, regular),
    A^2 = kI + lam*A + mu*(J - I - A), and the Laplacian factorization
    (L - uI)(L - vI) = mu*J, which packages the same information through
    the eigenvalues (uv = mu*q makes it vanish on the all-ones vector).
    Returns None when all hold; otherwise raises MismatchError on the
    first violation, with the detail a dense check scanning its matrices
    in row-major order would give.

    Why row 0 is enough: A = sum over s in S of the translation matrices
    T_s (x -> x + s), which commute.  So A[x, y] = 1_S(y - x) and
    A^2[x, y] = #{(s, s') in S^2 : s + s' = y - x}; I and J are
    translation invariant too.  Every entry of both sides of each identity
    depends only on the difference y - x, so any failure at (x, y) is also
    one at (0, y - x), and the first row-major failure is at (0, d) with d
    the smallest failing difference.  A is symmetric iff S = -S, its
    diagonal is zero iff 0 is not in S, and every row sums to |S|.
    Row 0 of A^2 is 1_S * 1_S over the group (Z/p)^e: one DFT pair on the
    indicator of S as a (p,)*e tensor of index digits; -S reads it at negated
    digits.  At p = 2 every butterfly is +-1 and 1/q a power of 2: exact.  At
    odd p each entry is off by about k*log2(q)*2^-53 (the usual FFT convolution
    bound), under 1e-9 at q <= 2^16 (1.8e-11 at most on its 48 triples); one
    1/4 or more from an integer raises PrecisionError.
    """
    P = table.params
    p, e, q, k, lam, mu, u, v = P.p, P.ext_degree, P.q, P.k, P.lam, P.mu, P.u, P.v
    S = np.array(sorted(table.subgroup), dtype=np.int64)
    T = np.bincount(S, np.ones(len(S)), q).reshape((p,) * e)

    if not np.array_equal(T, T[np.ix_(*[-np.arange(p) % p] * e)]):
        raise MismatchError("adjacency not symmetric")
    if 0 in table.subgroup:
        raise MismatchError("nonzero diagonal entry")
    if len(S) != k:
        raise MismatchError(f"vertex 0 has degree {len(S)} != {k}")

    F = np.fft.fftn(T)
    row = np.fft.ifftn(F * F).real.ravel()
    lhs = np.rint(row)
    if (err := np.abs(row - lhs).max()) >= 0.25:
        raise PrecisionError(f"row 0 of A^2 lies {err:.3g} from an integer in float64, not under 1/4")
    rhs = np.full(q, mu, dtype=np.int64)
    rhs[S] = lam
    rhs[0] = k
    if not np.array_equal(lhs, rhs):
        j = int(np.argmax(lhs != rhs))
        raise MismatchError(f"A^2 identity fails at (0,{j}): {int(lhs[j])} != {int(rhs[j])}")

    # Given the A^2 identity, (L - uI)(L - vI) - mu*J = c0*I + c1*A.  A has a
    # zero diagonal and at least one edge, so that vanishes iff c0 = c1 = 0;
    # a failure is reported where the dense product first differs.
    c0 = (k - u) * (k - v) + k - mu
    c1 = u + v - 2 * k + lam - mu
    if c0 or c1:
        j, c = (0, c0) if c0 else (int(S[0]), c1)
        raise MismatchError(f"Laplacian identity fails at (0,{j}): {mu + c} != {mu}")
    if u * v != mu * q:  # what makes the factorization vanish on the all-ones vector
        raise MismatchError(f"Laplacian identity fails on the all-ones vector: u*v = {u * v} != mu*q = {mu * q}")


def write_matrix(path: str, M: np.ndarray) -> None:
    """One line per row, space-separated decimal entries."""
    line = " ".join(["%d"] * M.shape[1]) + "\n"
    with open(path, "w") as fh:
        for row in M.tolist():
            fh.write(line % tuple(row))

"""Cayley graph construction and strongly-regular identity checks.

The vertex set is F_q in the field module's index order; x ~ y iff
x - y lies in the connection subgroup.  Matrices are dense int64
(entries stay far below overflow at table scale q <= 2^16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldTable


def adjacency(table: FieldTable) -> np.ndarray:
    q = table.q
    A = np.zeros((q, q), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    for s in sorted(table.subgroup):
        A[xs, table.add_many(xs, s)] = 1
    return A


def laplacian(table: FieldTable) -> np.ndarray:
    A = adjacency(table)
    L = -A
    np.fill_diagonal(L, table.params.k)
    return L


@dataclass(frozen=True)
class SrgReport:
    ok: bool
    srg_params: tuple[int, int, int, int]  # (q, k, lambda, mu)
    detail: str = ""


def verify_srg(table: FieldTable) -> SrgReport:
    """Check the strongly-regular parameter identities exactly.

    Verifies the basic shape of A (symmetric 0/1, zero diagonal, regular),
    A^2 = kI + lam*A + mu*(J - I - A), and the Laplacian factorization
    (L - uI)(L - vI) = mu*J, which packages the same information through
    the eigenvalues (uv = mu*q makes it vanish on the all-ones vector).
    Returns the first violation found, if any.
    """
    P = table.params
    q, k, lam, mu, u, v = P.q, P.k, P.lam, P.mu, P.u, P.v
    A = adjacency(table)

    if not np.array_equal(A, A.T):
        return SrgReport(False, (q, k, lam, mu), "adjacency not symmetric")
    if A.diagonal().any():
        return SrgReport(False, (q, k, lam, mu), "nonzero diagonal entry")
    deg = A.sum(axis=1)
    if not (deg == k).all():
        i = int(np.argmax(deg != k))
        return SrgReport(False, (q, k, lam, mu), f"vertex {i} has degree {int(deg[i])} != {k}")

    I = np.eye(q, dtype=np.int64)
    J = np.ones((q, q), dtype=np.int64)
    lhs = A @ A
    rhs = k * I + lam * A + mu * (J - I - A)
    if not np.array_equal(lhs, rhs):
        i, j = np.unravel_index(int(np.argmax(lhs != rhs)), lhs.shape)
        return SrgReport(
            False,
            (q, k, lam, mu),
            f"A^2 identity fails at ({i},{j}): {int(lhs[i, j])} != {int(rhs[i, j])}",
        )

    # Given the A^2 identity, (L - uI)(L - vI) - mu*J = c0*I + c1*A.  A has a
    # zero diagonal and at least one edge, so that vanishes iff c0 = c1 = 0;
    # a failure is reported where the dense product first differs.
    c0 = (k - u) * (k - v) + k - mu
    c1 = u + v - 2 * k + lam - mu
    if c0 or c1:
        j, c = (0, c0) if c0 else (min(table.subgroup), c1)
        return SrgReport(
            False,
            (q, k, lam, mu),
            f"Laplacian identity fails at (0,{j}): {mu + c} != {mu}",
        )
    assert u * v == mu * q  # why the factorization kills the all-ones vector
    return SrgReport(True, (q, k, lam, mu))


def write_matrix(path: str, M: np.ndarray) -> None:
    """One line per row, space-separated decimal entries."""
    with open(path, "w") as fh:
        for row in M:
            fh.write(" ".join(str(int(x)) for x in row))
            fh.write("\n")

"""Closed-form pipeline for the index-3 family (p = 2 mod 3).

The p-part multiplicities of the critical group come from a bivariate
generating polynomial computed by a three-term recursion.  Two anchors
check it, both by traces 2 tr((XY)^t) of a matrix [[0, X], [Y, 0]]: the
carry digraph, whose weighted closed walks it counts, and the 6x6
transfer matrix, whose first three power sums fix its char polynomial.

A polynomial in Z[x, y] is a numpy array of shape (deg_x+1, deg_y+1, 1, 1)
whose entry [a, b, 0, 0] is the coefficient of x^a y^b; a matrix of
polynomials is a (dx, dy, n, m) array, so one product serves both.
"""

from __future__ import annotations

import math

import numpy as np

from .carries import p_part_from_lower_half
from .errors import BadResidueError, BoundExceededError, MismatchError
from .params import Params

# p_part_from_recursion's bound on t^3 log2 p, checked before the recursion:
# t steps over about t^2 coefficients of up to 2t log2 p bits each.  At the
# bound, `table` at p = 2, t = 158, the slowest admitted p, takes 10.0 s and
# 70 MB; p = 5, t = 119 takes 5.6 s (2 vCPUs, x86-64, Python 3.11).
WALK_WORK_BOUND = 4_000_000


def _pmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of polynomial matrices: one matmul per nonzero layer of A."""
    ax, ay, n, _ = A.shape
    bx, by, _, m = B.shape
    out = np.zeros((ax + bx - 1, ay + by - 1, n, m), dtype=np.result_type(A, B))
    for a, b in np.argwhere(np.count_nonzero(A, axis=(2, 3))):
        out[a : a + bx, b : b + by] += A[a, b] @ B
    return out


def _padd(*terms: np.ndarray) -> np.ndarray:
    """Sum of polynomial matrices of unequal degree."""
    dx = max(T.shape[0] for T in terms)
    dy = max(T.shape[1] for T in terms)
    out = np.zeros((dx, dy) + terms[0].shape[2:], dtype=np.result_type(*terms))
    for T in terms:
        out[: T.shape[0], : T.shape[1]] += T
    return out


def _peq(A: np.ndarray, B: np.ndarray) -> bool:
    """Equality of polynomial matrices, ignoring zero padding."""
    return np.count_nonzero(_padd(A, -B)) == 0


def _poly(coeffs: dict[tuple[int, int], int]) -> np.ndarray:
    """Exact (object-dtype) coefficient array of the sum of c x^a y^b over {(a, b): c}."""
    dx = max(a for a, _ in coeffs) + 1
    dy = max(b for _, b in coeffs) + 1
    out = np.zeros((dx, dy, 1, 1), dtype=object)
    for (a, b), c in coeffs.items():
        out[a, b] += c
    return out


def _require_index3_prime(p: int) -> None:
    if p % 3 != 2:
        raise BadResidueError(f"p = {p} is not 2 mod 3")


def recursion_coefficients(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three polynomial coefficients (P, Q, R) of the walk recursion."""
    _require_index3_prime(p)
    c1 = (p + 1) // 3
    c2 = (p - 2) // 3
    c3 = (2 * p - 1) // 3
    # base = x^2y^2 + x^2y + xy^2 + x + y + 1
    # P = c1^2 base + 3 c2^2 xy,  Q = c1^2 xy base + 3 c3^2 x^2y^2,  R = p^2 x^3y^3
    base = ((2, 2), (2, 1), (1, 2), (1, 0), (0, 1), (0, 0))
    P = _poly({**{m: c1 * c1 for m in base}, (1, 1): 3 * c2 * c2})
    Q = _poly({**{(a + 1, b + 1): c1 * c1 for a, b in base}, (2, 2): 3 * c3 * c3})
    R = _poly({(3, 3): p * p})
    return P, Q, R


def closed_walk_poly(p: int, t: int) -> np.ndarray:
    """Weighted closed-walk sum C(2t), by the three-term recursion from Newton's seeds C(0), C(2), C(4)."""
    _require_index3_prime(p)
    if t < 1:
        raise ValueError("t must be positive")
    P, Q, R = recursion_coefficients(p)
    window = [_poly({(0, 0): 6}), 2 * P, _padd(2 * _pmul(P, P), -4 * Q)]
    for _ in range(t - 2):
        nxt = _padd(_pmul(P, window[2]), -_pmul(Q, window[1]), _pmul(R, window[0]))
        window = [window[1], window[2], nxt]
    return window[min(t, 2)]


# --- walk oracle on the carry digraph --------------------------------------


def carry_digraph(p: int) -> np.ndarray:
    """Arcs of the bipartite carry-propagation digraph: arcs[side, cx', cy'] is a 0/1 matrix.

    A vertex on either side is (digit a, carries cx, cy), numbered
    4a + 2cx + cy.  The source digit against the thresholds (p+1)/3 and
    2(p+1)/3 forces the target carries: cx' = [a >= (p+1)/3 - cx] and
    cy' = [a >= 2(p+1)/3 - cy] on side 0, the two thresholds swapped on
    side 1.  An arc goes to every digit on the other side with those
    carries, and is weighted x^cx' * y^cy'.
    """
    _require_index3_prime(p)
    n, th1, th2 = 4 * p, (p + 1) // 3, 2 * (p + 1) // 3
    a, cx, cy = np.arange(n) // 4, np.arange(n) // 2 % 2, np.arange(n) % 2
    arcs = np.zeros((2, 2, 2, n, n), dtype=np.int64)
    for side, (thx, thy) in enumerate(((th1, th2), (th2, th1))):
        tx, ty = (a >= thx - cx).astype(np.int64)[:, None], (a >= thy - cy).astype(np.int64)[:, None]
        arcs[side, tx, ty, np.arange(n)[:, None], 4 * np.arange(p) + 2 * tx + ty] = 1
    return arcs


def _walk_traces(X: np.ndarray, Y: np.ndarray, t_max: int) -> list[np.ndarray]:
    """[2 tr((XY)^t) for t = 1..t_max], in the dtype of X and Y."""
    N = _pmul(X, Y)
    rows = N.reshape(N.shape[:2] + (1, -1))
    out, power = [], np.eye(N.shape[2], dtype=N.dtype)[None, None]
    for t in range(t_max):  # tr(N N^t) = sum_ij N_ij (N^t)_ji, without forming N^(t+1)
        power = _pmul(N, power) if t else power
        out.append(2 * _pmul(rows, power.transpose(0, 1, 3, 2).reshape(power.shape[:2] + (-1, 1))))
    return out


def walk_polys_by_trace(p: int, t_max: int) -> list[np.ndarray]:
    """C(2), C(4), ..., C(2 t_max) as traces of powers of the digraph matrix.

    Independent of the recursion: only the digraph arcs are used.  The
    digraph is bipartite, M = [[0, X], [Y, 0]], so tr M^(2t) = 2 tr((XY)^t).
    Every vertex has p out-arcs, so a coefficient counts at most the
    8p * p^(2t) walks of length 2t; the int64 counts are exact while
    8 p^(2 t_max + 1) < 2^63, and larger p is refused before any work.
    """
    _require_index3_prime(p)
    if t_max < 1:
        raise ValueError("t must be positive")
    bound = 8 * p ** (2 * t_max + 1)
    if bound >= 1 << 63:
        raise BoundExceededError(
            f"walk counts up to 8 p^(2t+1) = {bound} at p = {p}, t = {t_max} "
            "exceed the int64 bound 2^63"
        )
    return _walk_traces(*carry_digraph(p), t_max)


# --- collapsed 6x6 transfer matrix ------------------------------------------


def transfer_blocks(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks X, Y of the walk operator M = [[0, X], [Y, 0]] on its 6-dim image.

    M acts on the six class vectors (three per side); entry (i, j) of a
    block is the coefficient of class i in the image of class j of the
    other side.  Both blocks are K = [[c1,c1,c2],[c1,c2,c1],[c2,c1,c1]],
    with rows scaled by (1, x, xy) in X and by (1, y, xy) in Y.
    """
    _require_index3_prime(p)
    c1 = (p + 1) // 3
    c2 = (p - 2) // 3
    K = np.array([[c1, c1, c2], [c1, c2, c1], [c2, c1, c1]], dtype=object)
    X = np.zeros((2, 2, 3, 3), dtype=object)
    Y = np.zeros((2, 2, 3, 3), dtype=object)
    for row, (a, b) in enumerate(((0, 0), (1, 0), (1, 1))):
        X[a, b, row] = K[row]
        Y[b, a, row] = K[row]
    return X, Y


def verify_transfer_matrix(p: int) -> None:
    """Raise MismatchError unless det(zI - M) = z^6 - P z^4 + Q z^2 - R for the 6x6 M.

    det(zI - M) = det(z^2 I - N) for N = XY.  Over Q[x, y], Newton's
    identities turn (tr N, tr N^2, tr N^3) into the characteristic
    polynomial of N, and C(2t) is twice the t-th power sum of the roots of
    w^3 - P w^2 + Q w - R: the claim is 2 tr N^t = C(2t) for t <= 3, the
    message naming the first t that fails.  So det N = R = p^2 x^3 y^3 as
    built, and det M = -det N.
    """
    for t, trace in enumerate(_walk_traces(*transfer_blocks(p), 3), start=1):
        if not _peq(trace, closed_walk_poly(p, t)):
            raise MismatchError(f"transfer matrix char poly mismatch for p={p}: 2 tr (XY)^{t} != C({2 * t})")


def verify_walks(p: int, t_max: int = 4) -> None:
    """Trace-of-power oracle equals the recursion for every t up to t_max."""
    for t, walks in enumerate(walk_polys_by_trace(p, t_max), start=1):
        if not _peq(walks, closed_walk_poly(p, t)):
            raise MismatchError(f"walk oracle disagrees with recursion at p={p}, t={t}")


# --- multiplicities ----------------------------------------------------------


def p_rank_closed_form(p: int, t: int) -> int:
    """Rank of the Laplacian mod p: ((p+1)/3)^(2t) (2^(t+1) - 2)."""
    _require_index3_prime(p)
    return ((p + 1) // 3) ** (2 * t) * (2 ** (t + 1) - 2)


def check_walk_bound(params: Params) -> None:
    """Refuse before any work: ell != 3 or (p, t) = (2, 1), and t^3 log2 p past WALK_WORK_BOUND."""
    p, t = params.p, params.t
    if params.ell != 3:
        raise BadResidueError(f"the walk recursion needs ell = 3, not {params.ell}")
    if (p, t) == (2, 1):
        raise BadResidueError("(p, t) = (2, 1) is excluded (disconnected graph)")
    if t**3 * math.log2(p) > WALK_WORK_BOUND:
        raise BoundExceededError(f"p = {p}, t = {t}: t^3 log2 p exceeds the walk recursion's bound {WALK_WORK_BOUND}")


def p_part_from_recursion(params: Params) -> dict[int, int]:
    """Sylow p-part multiplicities e_j for the index-3 family.

    The lower half e_a, 0 <= a < t, is a coefficient sum of the walk
    polynomial C(2t), and e_0 must equal the closed form above;
    carries.p_part_from_lower_half mirrors it and forces the middle.
    Refuses first what check_walk_bound refuses.
    """
    check_walk_bound(params)
    p, t = params.p, params.t
    C = closed_walk_poly(p, t)[:, :, 0, 0]
    lower = {a: int(C[a, a + 1 : t + 1].sum()) for a in range(t)}
    e0 = p_rank_closed_form(p, t)
    if lower[0] != e0:
        raise MismatchError(f"p-rank closed form {e0} disagrees with walk coefficients {lower[0]}")
    return p_part_from_lower_half(lower, params)

"""Closed-form pipeline for the index-3 family (p = 2 mod 3).

The p-part multiplicities of the critical group come from a bivariate
generating polynomial computed by a three-term recursion.  A polynomial
in Z[x, y] is a nested list whose entry [a][b] is the coefficient of
x^a y^b.  The recursion keeps each x-row as one Python integer, the
row's polynomial in y evaluated at y = 2^S (Kronecker substitution), so
a term c x^a y^b of P, Q or R is a shift-add of every row.  S is the
bit length of C(2t)(1, 1): every coefficient counts weighted walks, so
it lies in 0..C(2t)(1, 1), and each row is reduced mod 2^((2t+1)S).

Two anchors check it, both by traces 2 tr((XY)^t) of a matrix
[[0, X], [Y, 0]]: the carry digraph, whose weighted closed walks it
counts, and the 6x6 transfer matrix, whose first three power sums fix
its char polynomial.  They run on numpy arrays, a matrix of polynomials
being a (dx, dy, n, m) array, and numpy is imported only when they run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import BadResidueError, BoundExceededError, MismatchError
from .params import Params, p_part_from_lower_half

if TYPE_CHECKING:
    import numpy as np

Poly = list[list[int]]

# p_part_from_recursion's bound on t^3 log2 p, checked before the recursion:
# t steps over about t^2 coefficients of up to 2t log2 p bits each.  At the
# bound, `table` at p = 2, t = 158, the slowest admitted p, takes 1.5-2.2 s and
# 38 MB; p = 5, t = 119 takes 1.3-1.7 s (2 shared vCPUs, x86-64, Python 3.11).
WALK_WORK_BOUND = 4_000_000


def _poly(coeffs: dict[tuple[int, int], int]) -> Poly:
    """The sum of c x^a y^b over {(a, b): c}, as rows up to the largest a and b."""
    dy = max(b for _, b in coeffs) + 1
    out = [[0] * dy for _ in range(max(a for a, _ in coeffs) + 1)]
    for (a, b), c in coeffs.items():
        out[a][b] += c
    return out


def _nonzero(poly: Poly) -> dict[tuple[int, int], int]:
    """{(a, b): c} over the nonzero coefficients: equal for equal polynomials, whatever the zero padding."""
    return {(a, b): c for a, row in enumerate(poly) for b, c in enumerate(row) if c}


def _require_index3_prime(p: int) -> None:
    if p % 3 != 2:
        raise BadResidueError(f"p = {p} is not 2 mod 3")


def recursion_coefficients(p: int) -> tuple[Poly, Poly, Poly]:
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


def _by_shift(f: Poly, S: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The terms c x^a y^b of f as (b*S, [(a, c), ...]), one entry per b that has a term."""
    groups = [(b * S, [(a, row[b]) for a, row in enumerate(f) if row[b]]) for b in range(len(f[0]))]
    return [(shift, terms) for shift, terms in groups if terms]


def _walk_rows(P, Q, R, t: int, mask: int) -> list[int]:
    """The rows of C(2t) by the three-term recursion from Newton's seeds C(0), C(2), C(4).

    P, Q and R are given as _by_shift lists, and every row of every C(2s)
    is reduced by & mask.
    """

    def combine(*products):  # the sum of f * rows over (f, rows)
        out = [0] * max(len(rows) + max(a for _, terms in f for a, _ in terms) for f, rows in products)
        for f, rows in products:
            for shift, terms in f:
                for i, row in enumerate(rows):
                    row <<= shift
                    for a, c in terms:
                        out[i + a] += row if c == 1 else c * row
        return [row & mask for row in out]

    minus_Q = [(shift, [(a, -c) for a, c in terms]) for shift, terms in Q]
    window = [[6], combine((P, [2]))]
    window.append(combine((P, window[1]), (minus_Q, [4])))
    for _ in range(t - 2):
        window = [window[1], window[2], combine((P, window[2]), (minus_Q, window[1]), (R, window[0]))]
    return window[min(t, 2)]


def _slot_bits(p: int, t: int) -> int:
    """Bits per packed coefficient of C(2t): the bit length of C(2t)(1, 1), the recursion run on scalars."""
    at_one = [[(0, [(0, sum(map(sum, f)))])] for f in recursion_coefficients(p)]
    return _walk_rows(*at_one, t, -1)[0].bit_length()


def _unpack(row: int, n: int, S: int) -> list[int]:
    """The n S-bit slots of the nonnegative integer row, lowest first."""
    data, m = row.to_bytes((n * S + 7) // 8, "little"), (1 << S) - 1
    return [int.from_bytes(data[b * S >> 3 : (b + 1) * S + 7 >> 3], "little") >> (b * S & 7) & m for b in range(n)]


def closed_walk_poly(p: int, t: int) -> Poly:
    """Weighted closed-walk sum C(2t) as (2t+1) x (2t+1) rows of coefficients, by the packed recursion."""
    _require_index3_prime(p)
    if t < 1:
        raise ValueError("t must be positive")
    S, n = _slot_bits(p, t), 2 * t + 1
    # at x = y = 1 the walk operator N = XY has eigenvalues p^2, 1, 1, so C(2t)(1, 1) = 2(p^(2t) + 2)
    if (at_one := 2 * (p ** (2 * t) + 2)) >> S:
        raise MismatchError(f"C({2 * t})(1, 1) = {at_one} does not fit the {S}-bit coefficient slots")
    terms = [_by_shift(f, S) for f in recursion_coefficients(p)]
    return [_unpack(row, n, S) for row in _walk_rows(*terms, t, (1 << n * S) - 1)]


# --- walk oracle on the carry digraph --------------------------------------


def _pmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of polynomial matrices: one matmul per nonzero layer of A."""
    import numpy as np

    ax, ay, n, _ = A.shape
    bx, by, _, m = B.shape
    out = np.zeros((ax + bx - 1, ay + by - 1, n, m), dtype=np.result_type(A, B))
    for a, b in np.argwhere(np.count_nonzero(A, axis=(2, 3))):
        out[a : a + bx, b : b + by] += A[a, b] @ B
    return out


def carry_digraph(p: int) -> np.ndarray:
    """Arcs of the bipartite carry-propagation digraph: arcs[side, cx', cy'] is a 0/1 matrix.

    A vertex on either side is (digit a, carries cx, cy), numbered
    4a + 2cx + cy.  The source digit against the thresholds (p+1)/3 and
    2(p+1)/3 forces the target carries: cx' = [a >= (p+1)/3 - cx] and
    cy' = [a >= 2(p+1)/3 - cy] on side 0, the two thresholds swapped on
    side 1.  An arc goes to every digit on the other side with those
    carries, and is weighted x^cx' * y^cy'.
    """
    import numpy as np

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
    import numpy as np

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
    Every vertex has p out-arcs, so a coefficient counts at most the 8p * p^(2t)
    walks of length 2t, which bounds every partial sum: exact in float64 (BLAS)
    while 8 p^(2 t_max + 1) < 2^53, in int64 while < 2^63, refused above.
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
    arcs = carry_digraph(p).astype("float64" if bound < 1 << 53 else "int64")
    return [trace.astype("int64") for trace in _walk_traces(*arcs, t_max)]


# --- collapsed 6x6 transfer matrix ------------------------------------------


def transfer_blocks(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks X, Y of the walk operator M = [[0, X], [Y, 0]] on its 6-dim image.

    M acts on the six class vectors (three per side); entry (i, j) of a
    block is the coefficient of class i in the image of class j of the
    other side.  Both blocks are K = [[c1,c1,c2],[c1,c2,c1],[c2,c1,c1]],
    with rows scaled by (1, x, xy) in X and by (1, y, xy) in Y.
    """
    import numpy as np

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
        if _nonzero(trace[:, :, 0, 0].tolist()) != _nonzero(closed_walk_poly(p, t)):
            raise MismatchError(f"transfer matrix char poly mismatch for p={p}: 2 tr (XY)^{t} != C({2 * t})")


def verify_walks(p: int, t_max: int = 4) -> None:
    """Trace-of-power oracle equals the recursion for every t up to t_max."""
    for t, walks in enumerate(walk_polys_by_trace(p, t_max), start=1):
        if _nonzero(walks[:, :, 0, 0].tolist()) != _nonzero(closed_walk_poly(p, t)):
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
    params.p_part_from_lower_half mirrors it and forces the middle.
    Refuses first what check_walk_bound refuses.
    """
    check_walk_bound(params)
    p, t = params.p, params.t
    C = closed_walk_poly(p, t)
    lower = {a: sum(C[a][a + 1 : t + 1]) for a in range(t)}
    e0 = p_rank_closed_form(p, t)
    if lower[0] != e0:
        raise MismatchError(f"p-rank closed form {e0} disagrees with walk coefficients {lower[0]}")
    return p_part_from_lower_half(lower, params)

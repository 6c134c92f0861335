"""Closed-form pipeline for the index-3 family (p = 2 mod 3).

The p-part multiplicities of the critical group come from a bivariate
generating polynomial computed by a three-term recursion.  Two
independent anchors validate the recursion: a weighted digraph whose
closed walks it counts (trace-of-power oracle), and the symbolic
characteristic polynomial of the collapsed 6x6 transfer matrix.
"""

from __future__ import annotations

from itertools import permutations

from .carries import check_conservation
from .errors import BadResidueError, MismatchError
from .params import Params, validate


class BivarPoly:
    """Sparse bivariate polynomial with exact integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def monomial(a: int, b: int, c: int = 1) -> "BivarPoly":
        return BivarPoly({(a, b): c})

    @staticmethod
    def const(c: int) -> "BivarPoly":
        return BivarPoly({(0, 0): c})

    def coeff(self, a: int, b: int) -> int:
        return self.terms.get((a, b), 0)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivarPoly(out)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return BivarPoly(out)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict[tuple[int, int], int] = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                k = (x1 + x2, y1 + y2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivarPoly(out)

    def scale(self, c: int) -> "BivarPoly":
        return BivarPoly({k: c * v for k, v in self.terms.items()})

    def __neg__(self) -> "BivarPoly":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            bits.append(f"{c}*x^{a}*y^{b}")
        return " + ".join(bits)


def _require_index3_prime(p: int) -> None:
    if p % 3 != 2:
        raise BadResidueError(f"p = {p} is not 2 mod 3")


def recursion_coefficients(p: int) -> tuple[BivarPoly, BivarPoly, BivarPoly]:
    """The three polynomial coefficients (P, Q, R) of the walk recursion."""
    _require_index3_prime(p)
    c1 = (p + 1) // 3
    c2 = (p - 2) // 3
    c3 = (2 * p - 1) // 3
    base = BivarPoly(
        {(2, 2): 1, (2, 1): 1, (1, 2): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}
    )
    P = base.scale(c1 * c1) + BivarPoly.monomial(1, 1, 3 * c2 * c2)
    Q = (BivarPoly.monomial(1, 1) * base).scale(c1 * c1) + BivarPoly.monomial(
        2, 2, 3 * c3 * c3
    )
    R = BivarPoly.monomial(3, 3, p * p)
    return P, Q, R


def closed_walk_poly(p: int, t: int) -> BivarPoly:
    """Weighted closed-walk sum C(2t), by the three-term recursion."""
    _require_index3_prime(p)
    if t < 1:
        raise ValueError("t must be positive")
    P, Q, R = recursion_coefficients(p)
    c2 = P.scale(2)
    if t == 1:
        return c2
    c4 = (P * P).scale(2) - Q.scale(4)
    if t == 2:
        return c4
    c6 = R.scale(6) + (P * P * P).scale(2) - (P * Q).scale(6)
    window = [c2, c4, c6]
    for _ in range(t - 3):
        nxt = P * window[-1] - Q * window[-2] + R * window[-3]
        window = [window[-2], window[-1], nxt]
    return window[-1]


# --- walk oracle on the carry digraph --------------------------------------


def carry_digraph(p: int) -> tuple[list[tuple[int, int, int, int]], dict]:
    """Vertices and arcs of the bipartite carry-propagation digraph.

    A vertex is (side, digit, cx, cy) with side 0/1 and carries cx, cy in
    {0, 1}; an arc goes to every digit on the other side whose carry pair
    is forced by the source digit against the two thresholds (p+1)/3 and
    2(p+1)/3, and is weighted x^cx' * y^cy' by the target carries.
    """
    _require_index3_prime(p)
    th1 = (p + 1) // 3
    th2 = 2 * (p + 1) // 3
    verts = [
        (side, a, cx, cy)
        for side in (0, 1)
        for a in range(p)
        for cx in (0, 1)
        for cy in (0, 1)
    ]
    arcs: dict[tuple, list[tuple]] = {}
    for side, a, cx, cy in verts:
        if side == 0:
            if a < th1 - cx:
                tgt = (0, 0)
            elif a < th2 - cy:
                tgt = (1, 0)
            else:
                tgt = (1, 1)
        else:
            if a < th1 - cy:
                tgt = (0, 0)
            elif a < th2 - cx:
                tgt = (0, 1)
            else:
                tgt = (1, 1)
        arcs[(side, a, cx, cy)] = [(1 - side, a2, tgt[0], tgt[1]) for a2 in range(p)]
    return verts, arcs


def _digraph_matrix(p: int) -> list[list[BivarPoly]]:
    verts, arcs = carry_digraph(p)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    zero = BivarPoly()
    M = [[zero] * n for _ in range(n)]
    for v, targets in arcs.items():
        i = index[v]
        for w in targets:
            _, _, cx, cy = w
            M[i][index[w]] = M[i][index[w]] + BivarPoly.monomial(cx, cy)
    return M


def _poly_matmul(A, B):
    n = len(A)
    zero = BivarPoly()
    C = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if not a:
                continue
            Bk = B[k]
            Ci = C[i]
            for j in range(n):
                if Bk[j]:
                    Ci[j] = Ci[j] + a * Bk[j]
    return C


def walk_poly_by_trace(p: int, t: int) -> BivarPoly:
    """C(2t) computed as the trace of the 2t-th power of the digraph matrix.

    Independent of the recursion: only the digraph arcs are used.  The
    even power is assembled from squarings, with the final trace taken
    through a product pairing to avoid one full multiply.
    """
    _require_index3_prime(p)
    if t < 1:
        raise ValueError("t must be positive")
    M = _digraph_matrix(p)
    # powers[m] = M^m for m = 2, 4, 8, ...; M^(2t) assembled from them
    n = len(M)
    target = 2 * t
    sq = _poly_matmul(M, M)
    powers = {2: sq}
    hi = 2
    while hi * 2 <= target:
        powers[hi * 2] = _poly_matmul(powers[hi], powers[hi])
        hi *= 2
    # decompose target into two stored powers (target even, >= 2)
    left = hi
    rest = target - hi
    acc = powers[left]
    while rest:
        piece = max(k for k in powers if k <= rest)
        acc = _poly_matmul(acc, powers[piece])
        rest -= piece
    out = BivarPoly()
    for i in range(n):
        out = out + acc[i][i]
    return out


# --- collapsed 6x6 transfer matrix ------------------------------------------


def transfer_basis_matrix(p: int) -> list[list[BivarPoly]]:
    """Matrix of the walk operator on its 6-dimensional invariant image.

    Columns are the images of the six class vectors (three per side);
    entry (i, j) is the coefficient of class i in the image of class j.
    """
    _require_index3_prime(p)
    c1 = (p + 1) // 3
    c2 = (p - 2) // 3
    x = BivarPoly.monomial(1, 0)
    y = BivarPoly.monomial(0, 1)
    xy = BivarPoly.monomial(1, 1)
    one = BivarPoly.const(1)
    # columns 0..2 are the first-side class vectors, columns 3..5 the second side
    cols = [
        [None, None, None, one.scale(c1), y.scale(c1), xy.scale(c2)],  # image of h1
        [None, None, None, one.scale(c1), y.scale(c2), xy.scale(c1)],  # image of h2
        [None, None, None, one.scale(c2), y.scale(c1), xy.scale(c1)],  # image of h3
        [one.scale(c1), x.scale(c1), xy.scale(c2), None, None, None],  # image of h'1
        [one.scale(c1), x.scale(c2), xy.scale(c1), None, None, None],  # image of h'2
        [one.scale(c2), x.scale(c1), xy.scale(c1), None, None, None],  # image of h'3
    ]
    zero = BivarPoly()
    M = [[zero] * 6 for _ in range(6)]
    for j, col in enumerate(cols):
        for i, entry in enumerate(col):
            if entry is not None:
                M[i][j] = entry
    return M


def char_poly_coeffs(p: int) -> dict[int, BivarPoly]:
    """Coefficients (by z-degree) of det(zI - M) for the 6x6 transfer matrix.

    Computed by Leibniz expansion over Z[x,y][z]; exact and division-free.
    """
    M = transfer_basis_matrix(p)
    # represent each entry of zI - M as {z-degree: BivarPoly}
    E = []
    for i in range(6):
        row = []
        for j in range(6):
            ent: dict[int, BivarPoly] = {}
            if M[i][j]:
                ent[0] = -M[i][j]
            if i == j:
                ent[1] = BivarPoly.const(1)
            row.append(ent)
        E.append(row)
    det: dict[int, BivarPoly] = {}
    for perm in permutations(range(6)):
        inv = sum(1 for i in range(6) for j in range(i + 1, 6) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        term = {0: BivarPoly.const(sign)}
        ok = True
        for i in range(6):
            ent = E[i][perm[i]]
            if not ent:
                ok = False
                break
            nxt: dict[int, BivarPoly] = {}
            for za, pa in term.items():
                for zb, pb in ent.items():
                    prod = pa * pb
                    if prod:
                        key = za + zb
                        nxt[key] = nxt.get(key, BivarPoly()) + prod
            term = nxt
        if not ok:
            continue
        for zdeg, poly in term.items():
            det[zdeg] = det.get(zdeg, BivarPoly()) + poly
    return {zdeg: poly for zdeg, poly in det.items() if poly}


def verify_transfer_matrix(p: int) -> None:
    """Characteristic polynomial and determinant identities of the 6x6 matrix.

    Raises MismatchError unless det(zI - M) = z^6 - P z^4 + Q z^2 - R and
    det(M) = -p^2 x^3 y^3.  det(M) is the constant term det(-M) of the
    characteristic polynomial, equal to det(M) because M has even order.
    """
    P, Q, R = recursion_coefficients(p)
    got = char_poly_coeffs(p)
    want = {6: BivarPoly.const(1), 4: -P, 2: Q, 0: -R}
    want = {k: v for k, v in want.items() if v}
    if got != want:
        raise MismatchError(f"transfer matrix char poly mismatch for p={p}")
    det = got.get(0, BivarPoly())
    if det != BivarPoly.monomial(3, 3, -p * p):
        raise MismatchError(f"transfer matrix determinant mismatch for p={p}: {det}")


def verify_walks(p: int, t_max: int = 4) -> None:
    """Trace-of-power oracle equals the recursion for every t up to t_max."""
    for t in range(1, t_max + 1):
        if walk_poly_by_trace(p, t) != closed_walk_poly(p, t):
            raise MismatchError(f"walk oracle disagrees with recursion at p={p}, t={t}")


# --- multiplicities ----------------------------------------------------------


def p_rank_closed_form(p: int, t: int) -> int:
    """Rank of the Laplacian mod p: ((p+1)/3)^(2t) (2^(t+1) - 2)."""
    _require_index3_prime(p)
    return ((p + 1) // 3) ** (2 * t) * (2 ** (t + 1) - 2)


def p_part_from_recursion(p: int, t: int, params: Params | None = None) -> dict[int, int]:
    """Sylow p-part multiplicities e_j for the index-3 family.

    e_a for 0 < a < t is a coefficient sum of the walk polynomial C(2t);
    e_0 has the closed form above (cross-checked against the same
    coefficient sums); the upper range mirrors the lower one shifted by
    delta = [p = 2]; the middle is forced by counting.  Excluded case:
    (p, t) = (2, 1) is the disconnected graph.
    """
    _require_index3_prime(p)
    if (p, t) == (2, 1):
        raise BadResidueError("(p, t) = (2, 1) is excluded (disconnected graph)")
    params = params or validate(p, 3, t)
    if (params.p, params.ell, params.t) != (p, 3, t):
        raise ValueError(f"params are for {(params.p, params.ell, params.t)}, not {(p, 3, t)}")
    q, k = params.q, params.k
    delta = 1 if p == 2 else 0
    C = closed_walk_poly(p, t)
    e: dict[int, int] = {}
    e0 = p_rank_closed_form(p, t)
    walk_e0 = sum(C.coeff(0, b) for b in range(1, t + 1))
    if walk_e0 != e0:
        raise MismatchError(
            f"p-rank closed form {e0} disagrees with walk coefficients {walk_e0}"
        )
    e[0] = e0
    e[2 * t + delta] = e0 - 2
    for a in range(1, t):
        e[a] = sum(C.coeff(a, b) for b in range(a + 1, t + 1))
        e[2 * t + delta - a] = e[a]
    below = sum(e.get(j, 0) for j in range(t))
    if p == 2:
        e[t + 1] = k + 2 - below
        e[t] = 2 * k - below
    else:
        e[t] = (k + 2 - below) + (2 * k - below)
    e = {j: m for j, m in e.items() if m}
    check_conservation(e, params)
    return e

"""Base-p digit sums mod q-1, carry counting, and the p-part multiplicities.

Residues in 1..q-2 have a unique (ell-1)t-digit expansion in base p;
the number of carries when two such residues are added modulo q-1
equals (s(a) + s(b) - s(a+b)) / (p-1), where s is the digit sum.  The
Sylow p-part of the critical group is determined by the minimum carry
count over each index coset.  Every function here takes int64 arrays
(any shape, broadcast together) and returns arrays: the histogram and
the block checks run the same kernels on chunks of cosets.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BoundExceededError,
    ConservationError,
    MismatchError,
    UndefinedSumError,
    ZeroResidueError,
)
from .params import Params

DEFAULT_ENUM_BOUND = 1 << 24
# Cosets per min_carries call in the histogram: its arrays are (ell, chunk)
# int64, small enough to stay in cache, so peak memory does not grow with k.
HIST_CHUNK = 1 << 12


def digit_sums(x, params: Params) -> np.ndarray:
    """Base-p digit sums of the residues x mod q-1, which must be nonzero.

    Legendre's identity s(r) = r - (p-1) * sum_{i>=1} floor(r / p^i)
    needs one floor division per digit.
    """
    p = params.p
    r = np.asarray(x, dtype=np.int64) % (params.q - 1)
    if not r.all():
        raise ZeroResidueError(f"{np.asarray(x).ravel()[np.argmin(r)]} is divisible by q-1 = {params.q - 1}")
    y, floors = np.array(r), np.zeros_like(r)
    for _ in range(params.ext_degree - 1):
        np.floor_divide(y, p, out=y)
        floors += y
    return r - (p - 1) * floors


def carry_count(a, b, params: Params) -> np.ndarray:
    """Carries in the cyclic addition of a and b mod q-1, via digit sums."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    if ((a + b) % (params.q - 1) == 0).any():
        raise UndefinedSumError("a + b is divisible by q-1; expansion undefined")
    s = digit_sums(a, params) + digit_sums(b, params) - digit_sums(a + b, params)
    c, rem = np.divmod(s, params.p - 1)
    if (bad := (rem != 0) | (c < 0) | (c > params.ext_degree)).any():
        j = np.argmax(bad)
        raise MismatchError(
            f"digit sums of ({a.flat[j]}, {b.flat[j]}) give {s.flat[j]}/(p-1) carries, "
            f"not 0..{params.ext_degree}"
        )
    return c


def min_carries(idx, params: Params) -> np.ndarray:
    """Minimum of c(i + m*k, n*k) over 0 <= m < ell, 1 <= n < ell, for each i in idx."""
    p, ell, k = params.p, params.ell, params.k
    idx = np.asarray(idx, dtype=np.int64)
    if ((idx < 1) | (idx > k - 1)).any():
        raise ValueError(f"coset representatives must lie in 1..k-1, got {idx.min()}..{idx.max()}")
    sums = digit_sums(np.arange(ell).reshape((ell,) + (1,) * idx.ndim) * k + idx, params)
    s_k = digit_sums(np.arange(1, ell) * k, params)
    best = None
    for n in range(1, ell):  # np.roll(sums, -n, axis=0)[m] = sums[(m + n) % ell]
        c = (sums + s_k[n - 1] - np.roll(sums, -n, axis=0)).min(axis=0) // (p - 1)
        best = c if best is None else np.minimum(best, c)
    if (bad := (best < 0) | (best > params.ext_degree // 2)).any():
        j = np.argmax(bad)
        raise MismatchError(f"min_carries({idx.flat[j]}) = {best.flat[j]} lies outside 0..{params.ext_degree // 2}")
    return best


def min_carries_histogram(params: Params, enum_bound: int = DEFAULT_ENUM_BOUND) -> dict[int, int]:
    """Multiset {min_carries(i) : 1 <= i <= k-1} as a histogram, HIST_CHUNK cosets at a time."""
    k, q, half = params.k, params.q, params.ext_degree // 2
    if k - 1 > enum_bound:
        raise BoundExceededError(f"k - 1 = {k - 1} exceeds enumeration bound {enum_bound}")
    if q > (1 << 62) // (params.ell + 1):
        raise BoundExceededError("q too large for int64 coset enumeration")
    counts = np.zeros(half + 1, dtype=np.int64)
    for lo in range(1, k, HIST_CHUNK):
        counts += np.bincount(min_carries(np.arange(lo, min(lo + HIST_CHUNK, k)), params), minlength=half + 1)
    return {j: int(cnt) for j, cnt in enumerate(counts) if cnt}


def check_conservation(e_mult: dict[int, int], params: Params) -> None:
    """Count and valuation conservation for a claimed p-part multiplicity map."""
    total = sum(e_mult.values())
    if total != params.q - 1:
        raise ConservationError(
            f"sum of multiplicities {total} != q - 1 = {params.q - 1}"
        )
    vsum = sum(j * m for j, m in e_mult.items())
    expected = (
        params.k * params.vp(params.u)
        + (params.q - params.k - 1) * params.vp(params.v)
        - params.ext_degree
    )
    if vsum != expected:
        raise ConservationError(f"valuation sum {vsum} != v_p(order) = {expected}")


def p_part_from_carries(params: Params, enum_bound: int = DEFAULT_ENUM_BOUND) -> dict[int, int]:
    """Sylow p-part multiplicities e_j from the carry-minimum enumeration.

    Multiplicities at the extreme exponents come straight from the
    histogram; the middle exponent(s) are forced by counting, branching
    on whether p divides ell - 1.  The partial sum in the middle-case
    formulas runs over all j below half the extension degree (for ell=3
    this coincides with j < t); the conservation check guards the
    reading at runtime.
    """
    p, ell, t, q, k, d = params.p, params.ell, params.t, params.q, params.k, params.d
    half = params.ext_degree // 2
    hist = min_carries_histogram(params, enum_bound)
    e: dict[int, int] = {}
    base = hist.get(0, 0)
    e[0] = base + 2
    e[params.ext_degree + d] = base
    for j in range(1, half):
        e[j] = hist.get(j, 0)
        e[params.ext_degree + d - j] = e[j]
    below = sum(e.get(j, 0) for j in range(half))
    if d == 0:
        e[half] = q + 1 - 2 * below
    else:
        e[half + d] = k + 2 - below
        e[half] = (ell - 1) * k - below
    e = {j: m for j, m in e.items() if m}
    check_conservation(e, params)
    return e

"""Base-p digit expansions mod q-1, carry counting, and the p-part multiplicities.

Residues in 1..q-2 have a unique (ell-1)t-digit expansion in base p;
the number of carries when two such residues are added modulo q-1
equals (s(a) + s(b) - s(a+b)) / (p-1), where s is the digit sum.  The
Sylow p-part of the critical group is determined by the minimum carry
count over each index coset, which this module enumerates (vectorized
over all cosets) and converts into elementary divisor multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DigitVec:
    """Base-p digits (least significant first) of a residue in 1..q-2."""

    digits: tuple[int, ...]
    value: int

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)


def digit_vector(a: int, params: Params) -> DigitVec:
    r = a % (params.q - 1)
    if r == 0:
        raise ZeroResidueError(f"{a} is divisible by q-1 = {params.q - 1}")
    digits = []
    x = r
    for _ in range(params.ext_degree):
        digits.append(x % params.p)
        x //= params.p
    return DigitVec(digits=tuple(digits), value=r)


def digit_sum(a: int, params: Params) -> int:
    return digit_vector(a, params).digit_sum


def carry_count(a: int, b: int, params: Params) -> int:
    """Carries in the cyclic addition of a and b mod q-1, via digit sums."""
    q, p = params.q, params.p
    if (a + b) % (q - 1) == 0:
        raise UndefinedSumError("a + b is divisible by q-1; expansion undefined")
    s = digit_sum(a, params) + digit_sum(b, params) - digit_sum(a + b, params)
    c, rem = divmod(s, p - 1)
    if rem or not 0 <= c <= params.ext_degree:
        raise MismatchError(f"digit sums of ({a}, {b}) give {s}/(p-1) carries, not 0..{params.ext_degree}")
    return c


def min_carries(i: int, params: Params) -> int:
    """Minimum of c(i + m*k, n*k) over 0 <= m < ell, 1 <= n < ell."""
    ell, k = params.ell, params.k
    if not 1 <= i <= k - 1:
        raise ValueError(f"coset representative must lie in 1..k-1, got {i}")
    s_res = [digit_sum(i + m * k, params) for m in range(ell)]
    s_k = [digit_sum(n * k, params) for n in range(1, ell)]
    best = None
    for m in range(ell):
        for n in range(1, ell):
            c = (s_res[m] + s_k[n - 1] - s_res[(m + n) % ell]) // (params.p - 1)
            if best is None or c < best:
                best = c
    if not 0 <= best <= params.ext_degree // 2:
        raise MismatchError(f"min_carries({i}) = {best} lies outside 0..{params.ext_degree // 2}")
    return best


def min_carries_histogram(params: Params, enum_bound: int = DEFAULT_ENUM_BOUND) -> dict[int, int]:
    """Multiset {min_carries(i) : 1 <= i <= k-1} as a histogram.

    Vectorized over all cosets at once: for each of the ell translates
    the digit sums come from e strip-mined divmod passes, after which
    the ell(ell-1) carry counts per coset are pure array arithmetic.
    """
    p, ell, k, q, e = params.p, params.ell, params.k, params.q, params.ext_degree
    if k - 1 > enum_bound:
        raise BoundExceededError(f"k - 1 = {k - 1} exceeds enumeration bound {enum_bound}")
    if q > (1 << 62) // (ell + 1):
        raise BoundExceededError("q too large for int64 coset enumeration")
    idx = np.arange(1, k, dtype=np.int64)
    sums = []
    for m in range(ell):
        x = (idx + m * k) % (q - 1)
        tot = np.zeros_like(x)
        for _ in range(e):
            tot += x % p
            x //= p
        sums.append(tot)
    s_k = []
    for n in range(1, ell):
        s_k.append(digit_sum(n * k, params))
    cmin = None
    for m in range(ell):
        for n in range(1, ell):
            c = (sums[m] + s_k[n - 1] - sums[(m + n) % ell]) // (p - 1)
            cmin = c if cmin is None else np.minimum(cmin, c)
    counts = np.bincount(cmin)
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

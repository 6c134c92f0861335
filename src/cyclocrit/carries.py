"""Base-p digit sums mod q-1, carry counting, and the p-part multiplicities.

Residues in 1..q-2 have a unique (ell-1)t-digit expansion in base p;
the number of carries when two such residues are added modulo q-1
equals (s(a) + s(b) - s(a+b)) / (p-1), where s is the digit sum.  The
Sylow p-part of the critical group is determined by the minimum carry
count over each index coset.  Every function here takes int64 arrays
(any shape, broadcast together) and returns arrays: the histogram and
the block checks run the same kernels on chunks of cosets.

Multiplying by p mod q-1 rotates the digits, so it keeps carry counts,
and it maps the pairs of coset i onto those of coset p*i mod k.  The
histogram therefore evaluates only the least coset of each orbit of
i -> p*i mod k, weighted by the orbit size: about k/e of the k-1 cosets,
e = (ell-1)t, found in about k ln e element operations.  Its enumeration
bound still counts all k-1 cosets.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BoundExceededError, MismatchError, UndefinedSumError, ZeroResidueError
from .params import Params, p_part_from_lower_half

DEFAULT_ENUM_BOUND = 1 << 24
# Candidate cosets per step of the histogram.  A candidate leaves at its first
# rotation p^j * i mod k below it, so a step costs about HIST_CHUNK * ln e element
# operations and min_carries sees about HIST_CHUNK / e survivors; every array is
# at most (ell, HIST_CHUNK) int64, so peak memory does not grow with k.
HIST_CHUNK = 1 << 12
ORBIT_SAMPLE = 8  # orbits whose every coset the histogram also evaluates directly


@lru_cache(maxsize=None)
def _digit_sum_table(p: int) -> tuple[np.ndarray, int]:
    """(digit sums of 0..p^h - 1, h) for the largest h >= 1 with p^h <= max(p, 2^12)."""
    table, h = np.zeros(1, dtype=np.int64), 0
    while table.size * p <= max(p, 1 << 12):
        table, h = np.add.outer(table, np.arange(p)).ravel(), h + 1  # s(p*n + a) = s(n) + a
    table.flags.writeable = False
    return table, h


def digit_sums(x, params: Params) -> np.ndarray:
    """Base-p digit sums of the residues x mod q-1, which must be nonzero.

    One lookup per base-p^h digit in a table of the digit sums of
    0..p^h - 1.
    """
    r = np.asarray(x, dtype=np.int64) % (params.q - 1)
    if not r.all():
        raise ZeroResidueError(f"{np.asarray(x).ravel()[np.argmin(r)]} is divisible by q-1 = {params.q - 1}")
    table, h = _digit_sum_table(params.p)
    s = np.zeros_like(r)
    for _ in range(-(-params.ext_degree // h) - 1):  # every base-p^h digit below the leading one
        r, digit = np.divmod(r, table.size)
        s += table[digit]
    return s + table[r]


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
    twice, best = np.concatenate([sums, sums]), None
    for n in range(1, ell):  # twice[n : n + ell][m] = sums[(m + n) % ell]
        c = (sums + s_k[n - 1] - twice[n : n + ell]).min(axis=0) // (p - 1)
        best = c if best is None else np.minimum(best, c)
    if (bad := (best < 0) | (best > params.ext_degree // 2)).any():
        j = np.argmax(bad)
        raise MismatchError(f"min_carries({idx.flat[j]}) = {best.flat[j]} lies outside 0..{params.ext_degree // 2}")
    return best


def _orbit_representatives(lo: int, hi: int, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """The i in lo..hi-1 least in their orbit under i -> p*i mod k, and the sizes of those orbits."""
    reps = cur = np.arange(lo, hi, dtype=np.int64)
    fixed = np.ones_like(reps)  # #{0 <= j < e : p^j * i = i mod k} = e / (orbit size)
    for _ in range(params.ext_degree - 1):
        cur = cur * params.p % params.k
        keep = cur >= reps
        reps, cur, fixed = reps[keep], cur[keep], fixed[keep] + (cur[keep] == reps[keep])
    return reps, params.ext_degree // fixed


def check_enumeration_bound(params: Params) -> None:
    """Refuse, before any work, k - 1 cosets past DEFAULT_ENUM_BOUND or a q past int64 enumeration."""
    if params.k - 1 > DEFAULT_ENUM_BOUND:
        raise BoundExceededError(f"k - 1 = {params.k - 1} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    if params.q > (1 << 62) // (params.ell + 1):
        raise BoundExceededError("q too large for int64 coset enumeration")


def min_carries_histogram(params: Params) -> dict[int, int]:
    """Multiset {min_carries(i) : 1 <= i <= k-1} as a histogram, one coset per Frobenius orbit.

    The bound counts all k-1 cosets.  The orbit sizes must sum to k-1,
    and min_carries must be constant on ORBIT_SAMPLE evenly spread
    orbits evaluated in full; otherwise MismatchError.
    """
    check_enumeration_bound(params)
    p, k, half = params.p, params.k, params.ext_degree // 2
    counts = np.zeros(half + 1, dtype=np.int64)
    for lo in range(1, k, HIST_CHUNK):
        reps, sizes = _orbit_representatives(lo, min(lo + HIST_CHUNK, k), params)
        np.add.at(counts, min_carries(reps, params), sizes)
    if counts.sum() != k - 1:
        raise MismatchError(f"Frobenius orbit sizes sum to {counts.sum()}, not k - 1 = {k - 1}")
    orbits = [np.linspace(1, k - 1, ORBIT_SAMPLE).astype(np.int64)]
    for _ in range(params.ext_degree - 1):
        orbits.append(orbits[-1] * p % k)
    orbits = np.array(orbits)
    got, rep = min_carries(orbits, params), orbits.argmin(axis=0)
    if (bad := got != got[rep, np.arange(orbits.shape[1])]).any():
        j, c = np.argwhere(bad)[0]
        raise MismatchError(
            f"min_carries({orbits[j, c]}) = {got[j, c]} differs from {got[rep[c], c]} "
            f"at its Frobenius orbit representative {orbits[rep[c], c]}"
        )
    return {j: int(cnt) for j, cnt in enumerate(counts) if cnt}


def p_part_from_carries(params: Params) -> dict[int, int]:
    """Sylow p-part multiplicities e_j from the carry-minimum enumeration.

    The lower half comes straight from the histogram: e_0 is its bin 0
    plus 2, and e_j its bin j for 0 < j < half.
    """
    hist = min_carries_histogram(params)
    lower = {j: hist.get(j, 0) for j in range(params.ext_degree // 2)}
    lower[0] += 2
    return p_part_from_lower_half(lower, params)

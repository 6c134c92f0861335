"""Canonical descriptions of finitely generated abelian groups.

A group is stored as a free rank plus a multiset of prime-power
elementary divisors, kept as (prime, exponent, multiplicity) triples
sorted by (prime, exponent).  Invariant factors are derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FactorizationError

TRIAL_LIMIT = 10**6


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a base set deterministic far beyond desk scale."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant with deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            count += 1
            if count > 1 << 22:
                break
        if 1 < d < n:
            return d
    raise FactorizationError(f"failed to factor {n}")


def factorint(n: int, trial_limit: int = TRIAL_LIMIT) -> dict[int, int]:
    """Prime factorization: trial division up to trial_limit, then Pollard rho."""
    if n < 1:
        raise ValueError("factorint needs a positive integer")
    out: dict[int, int] = {}
    for f in (2, 3):
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    f = 5
    while f * f <= n and f <= trial_limit:
        for g in (f, f + 2):
            while n % g == 0:
                out[g] = out.get(g, 0) + 1
                n //= g
        f += 6
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if _is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


@dataclass(frozen=True)
class AbelianGroupDesc:
    """free_rank plus elementary divisors as (prime, exponent, multiplicity)."""

    free_rank: int
    divisors: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_prime_powers(entries, free_rank: int = 0) -> "AbelianGroupDesc":
        acc: dict[tuple[int, int], int] = {}
        for prime, exp, mult in entries:
            if exp == 0 or mult == 0:
                continue
            acc[(prime, exp)] = acc.get((prime, exp), 0) + mult
        divisors = tuple(
            (prime, exp, mult) for (prime, exp), mult in sorted(acc.items()) if mult
        )
        return AbelianGroupDesc(free_rank=free_rank, divisors=divisors)

    @staticmethod
    def from_invariant_factors(factors, free_rank: int = 0) -> "AbelianGroupDesc":
        entries = []
        for a in factors:
            a = abs(int(a))
            if a == 1:
                continue
            for prime, exp in factorint(a).items():
                entries.append((prime, exp, 1))
        return AbelianGroupDesc.from_prime_powers(entries, free_rank=free_rank)

    def order(self) -> int:
        n = 1
        for prime, exp, mult in self.divisors:
            n *= prime ** (exp * mult)
        return n

    def order_factorization(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for prime, exp, mult in self.divisors:
            out[prime] = out.get(prime, 0) + exp * mult
        return out

    def p_part(self, p: int) -> "AbelianGroupDesc":
        return AbelianGroupDesc(
            0, tuple(dv for dv in self.divisors if dv[0] == p)
        )

    def p_multiplicities(self, p: int) -> dict[int, int]:
        """Map exponent -> multiplicity for the prime p (exponent >= 1 only)."""
        return {exp: mult for prime, exp, mult in self.divisors if prime == p}

    def invariant_factors(self) -> tuple[int, ...]:
        """Divisibility chain alpha_1 | alpha_2 | ... rebuilt from the divisors."""
        per_prime: dict[int, list[int]] = {}
        for prime, exp, mult in self.divisors:
            per_prime.setdefault(prime, []).extend([exp] * mult)
        s = max((len(v) for v in per_prime.values()), default=0)
        chain = []
        for i in range(s):  # i-th largest exponent of each prime
            a = 1
            for prime, exps in per_prime.items():
                exps_sorted = sorted(exps, reverse=True)
                if i < len(exps_sorted):
                    a *= prime ** exps_sorted[i]
            chain.append(a)
        return tuple(reversed(chain))

"""Parameter validation and derived constants for the graph family.

A triple (p, ell, t) is admissible when p and ell are primes, ell > 2,
p is primitive mod ell, and the resulting Cayley graph is connected
(which only fails for odd t with sqrt(q) = ell - 1).  Everything the
other modules need -- q, k, the Laplacian eigenvalues u and v, the SRG
parameters -- is derived here once, in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import PSI_13, factorint, is_prime
from .errors import (
    BoundExceededError,
    ConservationError,
    DisconnectedError,
    MismatchError,
    NotPrimeError,
    NotPrimitiveError,
)

# validate's bound on q = p^((ell-1)t), in bits, next to PSI_13 on p and ell.  It
# is checked before q is formed and before the loop over residues mod ell: the
# valuations and modular powers that follow are superlinear in log q.  At the
# bound, validate(2, 3, 2048) takes about 0.02 s (2 vCPUs, x86-64, Python 3.11);
# a 16,384-bit q takes 0.36 s.
MAX_Q_BITS = 1 << 12


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; 0 if a is not a unit mod n."""
    a %= n
    if a == 0:
        return 0
    x = a
    for k in range(1, n):
        if x == 1:
            return k
        x = (x * a) % n
    return 0


def p_adic_valuation(x: int, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@dataclass(frozen=True)
class Params:
    """Validated (p, ell, t) with all derived constants.

    q = p^((ell-1)t) is the field size, k = (q-1)/ell the valency,
    u and v the nonzero Laplacian eigenvalues (multiplicities k and
    q-k-1), d = v_p(ell-1), and lam/mu the strongly-regular parameters.
    Immutable; safe to share.
    """

    p: int
    ell: int
    t: int
    q: int
    k: int
    sqrt_q: int
    u: int
    v: int
    d: int
    lam: int
    mu: int

    @property
    def ext_degree(self) -> int:
        """Degree (ell-1)t of the field extension."""
        return (self.ell - 1) * self.t

    @property
    def group_order(self) -> int:
        """Number of spanning trees: u^k v^(q-k-1) / q.

        This is a gigantic integer for large q; callers beyond table
        scale should work with its factorization instead.
        """
        return self.u**self.k * self.v ** (self.q - self.k - 1) // self.q

    def vp(self, x: int) -> int:
        return p_adic_valuation(x, self.p)


def validate(p: int, ell: int, t: int) -> Params:
    """Check admissibility of (p, ell, t) and derive all constants.

    Raises NotPrimeError, NotPrimitiveError or DisconnectedError, and
    BoundExceededError for p or ell at or above PSI_13 or q above
    MAX_Q_BITS bits; an
    invariant that fails raises MismatchError where output rests on it
    (the valuations of u, v and uv, the lam/mu divisibility and
    q | u^k v^(q-k-1)) and ValueError otherwise.
    """
    for name, n in (("p", p), ("ell", ell), ("t", t)):
        if not isinstance(n, int) or n < 1:
            raise NotPrimeError(f"{name} must be a positive integer, got {n!r}")
    if max(p, ell) >= PSI_13:
        raise BoundExceededError(f"p = {p}, ell = {ell}: primality is decided only below {PSI_13}")
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")
    if not is_prime(ell) or ell <= 2:
        raise NotPrimeError(f"ell = {ell} is not an odd prime")
    if (ell - 1) * t > MAX_Q_BITS / math.log2(p):  # exact int/float comparison, whatever the size of t
        raise BoundExceededError(f"p = {p}, ell = {ell}, t = {t}: q = p^((ell-1)t) has more than {MAX_Q_BITS} bits")
    if multiplicative_order(p, ell) != ell - 1:
        raise NotPrimitiveError(f"p = {p} is not primitive mod ell = {ell}")

    # ell odd prime => (ell-1)t is even and sqrt_q is an exact integer
    half = (ell - 1) * t // 2
    sqrt_q = p**half
    q = sqrt_q * sqrt_q
    k = (q - 1) // ell
    if t % 2 == 1 and sqrt_q == ell - 1:
        raise DisconnectedError(
            f"t = {t} odd with sqrt(q) = ell - 1 = {ell - 1}: graph is disconnected"
        )

    sign = -1 if t % 2 == 1 else 1  # (-1)^t
    v = sqrt_q * (sqrt_q - sign) // ell
    u = v + sign * sqrt_q
    d = p_adic_valuation(ell - 1, p) if (ell - 1) % p == 0 else 0
    lam_num = q - 3 * ell + 1 - sign * (ell - 1) * (ell - 2) * sqrt_q
    mu_num = q - ell + 1 + sign * (ell - 2) * sqrt_q
    if lam_num % (ell * ell) or mu_num % (ell * ell):
        raise MismatchError(f"lam, mu numerators {lam_num}, {mu_num} are not divisible by ell^2 = {ell * ell}")
    lam = lam_num // (ell * ell)
    mu = mu_num // (ell * ell)

    params = Params(p=p, ell=ell, t=t, q=q, k=k, sqrt_q=sqrt_q, u=u, v=v, d=d, lam=lam, mu=mu)

    # eigenvalue valuations and order-formula divisibility back the output
    if u <= 0 or v <= 0:
        raise ValueError(f"eigenvalues u = {u}, v = {v} must be positive")
    if params.vp(u) != half + d or params.vp(v) != half:
        raise MismatchError(f"v_p(u) = {params.vp(u)}, v_p(v) = {params.vp(v)} != {half + d}, {half}")
    if params.vp(u * v) != (ell - 1) * t + d:
        raise MismatchError(f"v_p(uv) = {params.vp(u * v)} != (ell-1)t + d = {(ell - 1) * t + d}")
    if mu < 0 or lam < 0:
        raise ValueError(f"lam = {lam}, mu = {mu} must be nonnegative")
    # order formula well-defined: q | u^k v^(q-k-1), checked modularly
    if (pow(u, k, q) * pow(v, q - k - 1, q)) % q:
        raise MismatchError(f"q = {q} does not divide u^k v^(q-k-1)")
    return params


EigenFactors = tuple[dict[int, int], dict[int, int]]


def eigenvalue_factorizations(params: Params) -> EigenFactors:
    """Factorizations of u and v, each factored once with its power of p divided out first."""
    return tuple({params.p: params.vp(x), **factorint(x // params.p ** params.vp(x))} for x in (params.u, params.v))


def order_factorization(params: Params, eigen: EigenFactors | None = None) -> dict[int, int]:
    """Factored group order u^k v^(q-k-1) / q, from eigenvalue_factorizations(params) unless given."""
    out: dict[int, int] = {}
    for fac, mult in zip(eigen or eigenvalue_factorizations(params), (params.k, params.q - params.k - 1)):
        for prime, exp in fac.items():
            out[prime] = out.get(prime, 0) + exp * mult
    out[params.p] -= params.ext_degree
    if out[params.p] == 0:
        del out[params.p]
    return dict(sorted(out.items()))


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


def p_part_from_lower_half(lower: dict[int, int], params: Params) -> dict[int, int]:
    """Sylow p-part multiplicities e_j from the lower half {j: e_j : 0 <= j < half}.

    The upper range mirrors the lower one, e_(2half+d-j) = e_j for
    0 < j < half and e_(2half+d) = e_0 - 2, with half = (ell-1)t/2 and
    d = v_p(ell-1); the middle exponent(s) are forced by counting,
    branching on whether p divides ell - 1.  The partial sum in the
    middle-case formulas runs over all j below half (for ell = 3 this
    coincides with j < t); the conservation check guards the reading at
    runtime.  Zero multiplicities are dropped.
    """
    ell, q, k, d = params.ell, params.q, params.k, params.d
    half, top = params.ext_degree // 2, params.ext_degree + d
    e = dict(lower)
    e[top] = e[0] - 2
    for j in range(1, half):
        e[top - j] = e[j]
    below = sum(lower.values())
    if d == 0:
        e[half] = q + 1 - 2 * below
    else:
        e[half + d] = k + 2 - below
        e[half] = (ell - 1) * k - below
    e = {j: m for j, m in e.items() if m}
    check_conservation(e, params)
    return e

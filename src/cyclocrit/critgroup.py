"""Assembly of the full critical group and cross-pipeline reconciliation.

The formula pipeline combines the Sylow p-part (walk recursion for
ell = 3, carry enumeration otherwise) with the coprime part, which is a
product of two homocyclic factors determined by the prime-to-p parts of
the Laplacian eigenvalues.  The brute-force pipeline diagonalizes the
integer Laplacian directly.  method="both" runs the two and requires
elementary-divisor-level agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .abelian import AbelianGroupDesc, factorint
from .carries import DEFAULT_ENUM_BOUND, check_conservation, p_part_from_carries
from .errors import MethodMismatchError, MismatchError
from .field import DEFAULT_MAX_Q, build_field
from .index3 import p_part_from_recursion
from .params import Params, order_factorization
from .snf import (
    FULL_SNF_MAX_Q,
    critical_group_by_local_snf,
    critical_group_by_snf,
)

METHODS = ("formula", "bruteforce", "both")


def coprime_part(params: Params) -> tuple[AbelianGroupDesc, int, int]:
    """Prime-to-p part: (Z/u')^k x (Z/v')^(q-k-1) in elementary divisor form.

    u' and v' are the largest divisors of the eigenvalues u, v coprime
    to p.  Returns (group, u', v').
    """
    p, k, q = params.p, params.k, params.q
    u_free = params.u // p ** params.vp(params.u)
    v_free = params.v // p ** params.vp(params.v)
    entries = []
    for base, mult in ((u_free, k), (v_free, q - k - 1)):
        if base == 1:
            continue
        for prime, exp in factorint(base).items():
            entries.append((prime, exp, mult))
    return AbelianGroupDesc.from_prime_powers(entries), u_free, v_free


def p_part_multiplicities(params: Params, enum_bound: int = DEFAULT_ENUM_BOUND) -> dict[int, int]:
    """Sylow p-part multiplicities by the fastest applicable closed form."""
    if params.ell == 3:
        return p_part_from_recursion(params.p, params.t, params)
    return p_part_from_carries(params, enum_bound)


@dataclass(frozen=True)
class CriticalGroupResult:
    params: Params
    group: AbelianGroupDesc
    method: str
    p_part: dict[int, int]
    coprime_orders: tuple[int, int]  # (u', v') with exponents (k, q-k-1)
    checks: tuple[str, ...] = dc_field(default_factory=tuple)

    @property
    def order(self) -> int:
        return self.group.order()


def _check_order(group: AbelianGroupDesc, params: Params) -> None:
    """Raise MismatchError unless the torsion order is the spanning-tree count.

    The comparison is factored: the raw order is astronomically large for big q.
    """
    got, want = group.order_factorization(), order_factorization(params)
    if got != want:
        raise MismatchError(f"group order {got} != spanning-tree count {want}")


def _formula_group(params: Params, enum_bound: int) -> tuple[AbelianGroupDesc, dict[int, int], tuple[int, int]]:
    e_mult = p_part_multiplicities(params, enum_bound)
    cop, u_free, v_free = coprime_part(params)
    entries = [(params.p, j, m) for j, m in e_mult.items() if j > 0]
    entries.extend(cop.divisors)
    group = AbelianGroupDesc.from_prime_powers(entries, free_rank=1)
    _check_order(group, params)
    return group, e_mult, (u_free, v_free)


def _bruteforce_group(params: Params, max_q: int) -> tuple[AbelianGroupDesc, list[str]]:
    table = build_field(params, max_q=max_q)
    if params.q <= FULL_SNF_MAX_Q:
        return critical_group_by_snf(table), ["bruteforce:full-snf"]
    return critical_group_by_local_snf(table), ["bruteforce:p-local-snf"]


def critical_group(
    params: Params,
    method: str = "both",
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
    max_q: int = DEFAULT_MAX_Q,
) -> CriticalGroupResult:
    """Compute the critical group by the requested pipeline(s).

    method="both" compares formula and brute force divisor-by-divisor and
    raises MethodMismatchError on any discrepancy; the torsion order is
    checked against the spanning-tree count in every mode.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    checks: list[str] = []
    if method in ("formula", "both"):
        group, e_mult, coprime_orders = _formula_group(params, enum_bound)
        checks.append("order-formula")
    if method in ("bruteforce", "both"):
        bf_group, bf_checks = _bruteforce_group(params, max_q)
        checks.extend(bf_checks)
        if method == "bruteforce":
            e_mult = bf_group.p_multiplicities(params.p)
            e_mult[0] = params.q - 1 - sum(e_mult.values())
            check_conservation(e_mult, params)
            group = bf_group
            coprime_orders = coprime_part(params)[1:]
    if method == "both":
        if group != bf_group:
            raise MethodMismatchError(
                "formula and brute-force groups disagree:\n"
                f"  formula:    {group}\n  bruteforce: {bf_group}"
            )
        checks.append("formula==bruteforce")
    _check_order(group, params)
    return CriticalGroupResult(
        params=params,
        group=group,
        method=method,
        p_part=e_mult,
        coprime_orders=coprime_orders,
        checks=tuple(checks),
    )

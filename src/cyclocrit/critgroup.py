"""Assembly of the full critical group and cross-pipeline reconciliation.

The formula pipeline combines the Sylow p-part (walk recursion for
ell = 3, carry enumeration otherwise) with the coprime part, which is a
product of two homocyclic factors determined by the prime-to-p parts of
the Laplacian eigenvalues.  The brute-force pipeline diagonalizes the
integer Laplacian directly.  method="both" runs the two and requires
elementary-divisor-level agreement.  The numpy-backed modules (carries,
field, snf) are imported only by the routes that run them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING

from .abelian import AbelianGroupDesc
from .errors import MethodMismatchError, MismatchError
from .index3 import check_walk_bound, p_part_from_recursion
from .params import EigenFactors, Params, eigenvalue_factorizations, order_factorization

if TYPE_CHECKING:
    from .field import FieldTable

METHODS = ("formula", "bruteforce", "both")


def coprime_part(params: Params, eigen: EigenFactors | None = None) -> tuple[AbelianGroupDesc, int, int]:
    """Prime-to-p part: (Z/u')^k x (Z/v')^(q-k-1) in elementary divisor form.

    u' and v' are the largest divisors of the eigenvalues u, v coprime
    to p, read off eigen = eigenvalue_factorizations(params), factored
    here unless given.  Returns (group, u', v').
    """
    p, k, q = params.p, params.k, params.q
    fu, fv = eigen or eigenvalue_factorizations(params)
    entries = [(prime, exp, m) for fac, m in ((fu, k), (fv, q - k - 1)) for prime, exp in fac.items() if prime != p]
    return AbelianGroupDesc.from_prime_powers(entries), params.u // p ** fu[p], params.v // p ** fv[p]


def _p_part_route(params: Params):
    """(refusal, computation) of the p-part closed form: the walk recursion at ell = 3, else the carry histogram."""
    if params.ell == 3:
        return check_walk_bound, p_part_from_recursion
    from .carries import check_enumeration_bound, p_part_from_carries

    return check_enumeration_bound, p_part_from_carries


def p_part_multiplicities(params: Params) -> dict[int, int]:
    """Sylow p-part multiplicities by the fastest applicable closed form."""
    return _p_part_route(params)[1](params)


@dataclass(frozen=True)
class CriticalGroupResult:
    params: Params
    group: AbelianGroupDesc
    method: str
    checks: tuple[str, ...]


def _check_order(group: AbelianGroupDesc, params: Params, eigen: EigenFactors | None = None) -> None:
    """Raise MismatchError unless all multiplicities are positive and the order is the tree count.

    The p-part routes force their middle multiplicities by counting, so
    the order matches whatever the rest of the histogram says; a wrong
    histogram shows as a multiplicity below 1.  The comparison is
    factored (from eigen, as in coprime_part): the raw order is
    astronomically large for big q.
    """
    for prime, exp, mult in group.divisors:
        if mult < 1:
            raise MismatchError(f"elementary divisor {prime}^{exp} has multiplicity {mult}")
    got, want = group.order_factorization(), order_factorization(params, eigen)
    if got != want:
        raise MismatchError(f"group order {got} != spanning-tree count {want}")


def _first_difference(formula: AbelianGroupDesc, bruteforce: AbelianGroupDesc) -> str:
    """The first [prime, exp, mult] on which two groups differ, and its prime."""
    for a, b in zip_longest(formula.divisors, bruteforce.divisors):
        if a != b:
            prime = min(d[0] for d in (a, b) if d is not None)
            a, b = (list(d) if d is not None and d[0] == prime else None for d in (a, b))
            return f"at prime {prime}, formula has {a}, bruteforce has {b}"
    return f"free rank {formula.free_rank} (formula) vs {bruteforce.free_rank} (bruteforce)"


def _formula_group(params: Params) -> AbelianGroupDesc:
    # cheapest refusal first: the p-part's work bound, then factoring u and v, then the p-part
    _p_part_route(params)[0](params)
    eigen = eigenvalue_factorizations(params)
    entries = [(params.p, j, m) for j, m in p_part_multiplicities(params).items() if j > 0]
    entries.extend(coprime_part(params, eigen)[0].divisors)
    group = AbelianGroupDesc.from_prime_powers(entries, free_rank=1)
    _check_order(group, params, eigen)
    return group


def _bruteforce_group(params: Params, table: FieldTable | None) -> tuple[AbelianGroupDesc, list[str]]:
    from .field import build_field
    from .snf import FULL_SNF_MAX_Q, critical_group_by_local_snf, critical_group_by_snf

    table = build_field(params) if table is None else table
    if params.q <= FULL_SNF_MAX_Q:
        return critical_group_by_snf(table), ["bruteforce:full-snf"]
    return critical_group_by_local_snf(table), ["bruteforce:p-local-snf"]


def critical_group(params: Params, method: str = "both", table: FieldTable | None = None) -> CriticalGroupResult:
    """Compute the critical group by the requested pipeline(s).

    method="both" compares formula and brute force divisor-by-divisor and
    raises MethodMismatchError on any discrepancy; the torsion order is
    checked against the spanning-tree count in every mode.  The brute
    force reads table, the field table of params, or builds its own.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    checks: list[str] = []
    if method in ("formula", "both"):
        group = _formula_group(params)
        checks.append("order-formula")
    if method in ("bruteforce", "both"):
        bf_group, bf_checks = _bruteforce_group(params, table)
        checks.extend(bf_checks)
        if method == "bruteforce":
            group = bf_group
            _check_order(group, params)
    if method == "both":
        if group != bf_group:
            raise MethodMismatchError(
                f"formula and brute-force groups disagree: {_first_difference(group, bf_group)}"
            )
        checks.append("formula==bruteforce")
    return CriticalGroupResult(params=params, group=group, method=method, checks=tuple(checks))

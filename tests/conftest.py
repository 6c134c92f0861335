"""Shared cached constructors so expensive objects build once per session."""

from functools import lru_cache

from cyclocrit import (
    GaloisRing,
    build_field,
    critical_group,
    critical_group_by_snf,
    validate,
)


@lru_cache(maxsize=None)
def params_for(p, ell, t):
    return validate(p, ell, t)


@lru_cache(maxsize=None)
def field_for(p, ell, t):
    return build_field(params_for(p, ell, t))


@lru_cache(maxsize=None)
def ring_for(p, ell, t):
    return GaloisRing(field_for(p, ell, t))


@lru_cache(maxsize=None)
def snf_group_for(p, ell, t):
    """Brute-force critical group by full integer SNF (the slow oracle)."""
    return critical_group_by_snf(field_for(p, ell, t))


@lru_cache(maxsize=None)
def both_result_for(p, ell, t):
    """critical_group(..., method='both'): formula checked against brute force."""
    return critical_group(params_for(p, ell, t), "both")

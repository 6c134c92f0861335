"""Shared cached constructors so expensive objects build once per session."""

from functools import lru_cache

import numpy as np

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
    """Brute-force critical group by full SNF modulo 2uv (the oracle route for q <= 256)."""
    return critical_group_by_snf(field_for(p, ell, t))


@lru_cache(maxsize=None)
def both_result_for(p, ell, t):
    """critical_group(..., method='both'): formula checked against brute force."""
    return critical_group(params_for(p, ell, t), "both")


def drop_edge(L):
    """A copy of Laplacian L with the edge from vertex 0 to its first neighbour deleted."""
    L = L.copy()
    j = int(np.flatnonzero(L[0, 1:])[0]) + 1
    L[0, j] = L[j, 0] = 0
    L[0, 0] -= 1
    L[j, j] -= 1
    return L

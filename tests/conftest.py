"""Shared cached constructors so expensive objects build once per session."""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

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


def run_optimized(script, timeout=120):
    """Run a script under python -O with the package and these test helpers importable."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-O", "-c", script]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def drop_edge(L):
    """A copy of Laplacian L with the edge from vertex 0 to its first neighbour deleted."""
    L = L.copy()
    j = int(np.flatnonzero(L[0, 1:])[0]) + 1
    L[0, j] = L[j, 0] = 0
    L[0, 0] -= 1
    L[j, j] -= 1
    return L


def p_rank(mat, p):
    """Rank over F_p by Gaussian elimination (int64; p^2 must fit): a reference for the tests."""
    M = np.array(mat, dtype=np.int64) % p
    n, m = M.shape
    rank = 0
    for j in range(m):
        nz = np.nonzero(M[rank:, j])[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        M[[rank, i0], :] = M[[i0, rank], :]
        M[rank, :] = (M[rank, :] * pow(int(M[rank, j]), -1, p)) % p
        rows = np.nonzero(M[rank + 1 :, j])[0] + rank + 1
        M[rows, :] = (M[rows, :] - np.outer(M[rows, j], M[rank, :])) % p
        rank += 1
        if rank == n:
            break
    return rank

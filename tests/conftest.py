"""Shared cached constructors so expensive objects build once per session."""

import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cyclocrit import (
    GaloisRing,
    build_field,
    critical_group,
    critical_group_by_snf,
    min_carries,
    validate,
)
from cyclocrit.abelian import is_prime
from cyclocrit.errors import CyclocritError
from cyclocrit.field import DEFAULT_MAX_Q
from cyclocrit.snf import _swap_into_pivot


def admissible(max_q):
    """Every admissible (p, ell, t) with p <= 31, ell in {3, 5, 7, 11} and q <= max_q."""
    out = []
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        for ell in (3, 5, 7, 11):
            t = 1
            while p ** ((ell - 1) * t) <= max_q:
                try:
                    out.append(validate(p, ell, t))
                except CyclocritError:
                    pass
                t += 1
    return out


def admissible_up_to_table_bound():
    """Every admissible triple with q <= 2^16: p < 256 prime, ell odd prime (2^(ell-1) <= 2^16 gives ell <= 17)."""
    out = []
    for p in filter(is_prime, range(256)):
        for ell in filter(is_prime, range(3, 18)):
            t = 1
            while p ** ((ell - 1) * t) <= DEFAULT_MAX_Q:
                try:
                    out.append(validate(p, ell, t))
                except CyclocritError:
                    pass
                t += 1
    return out


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


def _compute(*args):
    return ["compute", "--p", "2", "--ell", "3", "--t", "2", *args]


def _verify(which):
    return ["verify", "--p", "2", "--ell", "3", "--t", "2", "--which", which]


# Corruptions that python -O must still report, by name: statements that patch
# the package, and the CLI argv to run after them ("{tmp}" is a scratch folder).
OPTIMIZED_SCENARIOS = {
    "dropped-edge": (
        "from conftest import drop_edge\n"
        "from cyclocrit import snf\n"
        "good = snf.laplacian\n"
        "snf.laplacian = lambda table: drop_edge(good(table))\n",
        _compute("--method", "bruteforce"),
    ),
    "stickelberger-pair": (
        "from cyclocrit import galois\n"
        "good = galois.carry_count\n"
        "galois.carry_count = lambda a, b, P: good(a, b, P) + ((a == 7) & (b == 11))\n",
        _verify("stickelberger"),
    ),
    # pair (5, 6) has one carry; its Jacobi sum zeroed reads as valuation N = 6
    "stickelberger-tile": (
        "from cyclocrit import galois\n"
        "good = galois._jacobi_chunk\n"
        "def corrupt(ring, a, n, tables):\n"
        "    out = good(ring, a, n, tables)\n"
        "    out[a == 5, 6 - 1] = 0\n"
        "    return out\n"
        "galois._jacobi_chunk = corrupt\n",
        _verify("stickelberger"),
    ),
    # the sampled route forced at q = 16; pair (5, 6) is drawn from seed 0
    "stickelberger-sample": (
        "from cyclocrit import galois\n"
        "galois.STICKELBERGER_EXHAUSTIVE_Q = 10\n"
        "good = galois.jacobi_sum\n"
        "def corrupt(a, b, ring):\n"
        "    out = good(a, b, ring)\n"
        "    out[(-a % 15 == 5) & (-b % 15 == 6)] = 0\n"
        "    return out\n"
        "galois.jacobi_sum = corrupt\n",
        _verify("stickelberger"),
    ),
    "min-carries": (
        "from cyclocrit import galois\n"
        "good = galois.min_carries\n"
        "galois.min_carries = lambda idx, P: good(idx, P) + 1\n",
        _verify("blocks"),
    ),
    # block 2 at (2, 3, 2) is not least in its orbit {1, 2, 4, 3}, so only the sample builds it
    "sampled-block": (
        "from cyclocrit import galois\n"
        "good = galois._blocks\n"
        "def corrupt(ring, idx):\n"
        "    out = good(ring, idx)\n"
        "    out[idx == 2] = 0\n"
        "    return out\n"
        "galois._blocks = corrupt\n",
        _verify("blocks"),
    ),
    # class c = 1 left out of every Jacobi row's sum over c of M[c, n*c mod ell]
    "dropped-class": (
        "from cyclocrit import galois\n"
        "good = galois._jacobi_rows\n"
        "def corrupt(ring, M):\n"
        "    M = M.copy()\n"
        "    M[:, 1] = 0\n"
        "    return good(ring, M)\n"
        "galois._jacobi_rows = corrupt\n",
        _verify("blocks"),
    ),
    "valuation": (
        "from cyclocrit import params\n"
        "good = params.p_adic_valuation\n"
        "params.p_adic_valuation = lambda x, p: good(x, p) + (x == 8)\n",
        _compute("--method", "formula"),
    ),
    "reducible-modulus": (
        "from cyclocrit import field\n"
        "field.smallest_irreducible = lambda p, e: (1, 0, 0, 0)\n",
        _compute("--method", "formula", "--export-adjacency", "{tmp}/adj.txt"),
    ),
    "p-part": (
        "from cyclocrit import critgroup\n"
        "good = critgroup.p_part_multiplicities\n"
        "def shifted(params):\n"
        "    mult = dict(good(params))\n"
        "    mult[2] -= 1\n"
        "    mult[0] += 1\n"
        "    return mult\n"
        "critgroup.p_part_multiplicities = shifted\n",
        _compute("--method", "formula"),
    ),
    # 40 extra cosets of minimum carry 1: the middle multiplicity, forced by
    # counting, goes negative while the order still matches
    "negative-multiplicity": (
        "from cyclocrit import carries\n"
        "good = carries.min_carries_histogram\n"
        "def bumped(params):\n"
        "    hist = dict(good(params))\n"
        "    hist[1] = hist.get(1, 0) + 40\n"
        "    return hist\n"
        "carries.min_carries_histogram = bumped\n",
        ["compute", "--p", "2", "--ell", "5", "--t", "2", "--method", "formula"],
    ),
    # the same on the ell = 3 route: 40 extra walks weighted x y^2 in C(4)
    "negative-multiplicity-walks": (
        "from cyclocrit import index3\n"
        "good = index3.closed_walk_poly\n"
        "def bumped(p, t):\n"
        "    C = [row[:] for row in good(p, t)]\n"
        "    C[1][2] += 40\n"
        "    return C\n"
        "index3.closed_walk_poly = bumped\n",
        _compute("--method", "formula"),
    ),
    # C(16)(1, 1) = 131076 needs 18 bits, but every coefficient fits in 16: only the slot check sees it
    "short-slots": (
        "from cyclocrit import index3\n"
        "good = index3._slot_bits\n"
        "index3._slot_bits = lambda p, t: good(p, t) - 2\n",
        ["compute", "--p", "2", "--ell", "3", "--t", "8", "--method", "formula"],
    ),
    # X one off at its constant (0, 0) entry: 2 tr (XY) no longer equals C(2) = 2P
    "transfer-matrix": (
        "from cyclocrit import index3\n"
        "good = index3.transfer_blocks\n"
        "def bumped(p):\n"
        "    X, Y = (block.copy() for block in good(p))\n"
        "    X[0, 0, 0, 0] += 1\n"
        "    return X, Y\n"
        "index3.transfer_blocks = bumped\n",
        _verify("walks"),
    ),
}

# Runs every scenario in turn, each with its own captured stdout and stderr,
# and restores every attribute of the package's modules after each one.
_OPTIMIZED_CHILD = """
import contextlib, io, json, sys, traceback
from cyclocrit import carries, cli, field, galois, graph, snf  # every module, so each patch is undone
from conftest import OPTIMIZED_SCENARIOS
modules = [m for name, m in sys.modules.items() if name.startswith("cyclocrit")]
results = {}
for name, (patch, argv) in OPTIMIZED_SCENARIOS.items():
    saved = [(vars(m), dict(vars(m))) for m in modules]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exec(patch, {})
        try:
            code = cli.main([arg.format(tmp=tmp) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    for namespace, before in saved:
        namespace.update(before)
    results[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


class OptimizedRuns(dict):
    """Scenario name -> (exit code, stdout, stderr); `tmp` is the scenarios' scratch folder."""

    def __init__(self, tmp, results):
        super().__init__(results)
        self.tmp = tmp


@pytest.fixture(scope="session")
def optimized_runs(tmp_path_factory):
    """Every OPTIMIZED_SCENARIOS entry, run in one python -O child to pay its start-up once.

    The child imports the package from src/ and these test helpers.
    """
    tmp = tmp_path_factory.mktemp("optimized")
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = f"tmp = {str(tmp)!r}\n" + _OPTIMIZED_CHILD
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return OptimizedRuns(tmp, {name: tuple(run) for name, run in json.loads(proc.stdout).items()})


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


def p_local_reference(mat, p: int, precision: int) -> tuple[dict[int, int], int]:
    """The unblocked int64/object-dtype p-local elimination: a reference for the float64 kernel.

    Returns ({j: multiplicity}, count of factors indistinguishable from
    zero at the available precision); for a graph Laplacian the latter is
    exactly the free rank provided precision exceeds the largest p-adic
    elementary divisor exponent plus the accumulated shift.  The pivot is
    the first unit of the current column, else of the current row, else
    the first unit of the remaining submatrix in row-major order.  Only
    the pivot row and column are reduced each step; the trailing block
    just grows by one product below p^(2B) per step, so it is reduced
    (and the minimum valuation divided out, the only precision loss) when
    neither the column nor the row has a unit.  int64 holds these delayed
    entries while n * p^(2B) < 2^62.
    """
    pB = p**precision
    n, m = np.shape(mat)
    if min(n, m) * pB * pB < 1 << 62:
        M = np.array(mat, dtype=np.int64) % pB
    else:
        M = np.array([[int(x) % pB for x in row] for row in mat], dtype=object)
    shift = 0
    exps: list[int] = []
    t = 0
    while t < min(n, m):
        mod = p ** (precision - shift)
        col, row = M[t:, t] % p != 0, M[t, t:] % p != 0
        if col.any() or row.any():
            i0, j0 = (int(np.argmax(col)), 0) if col.any() else (0, int(np.argmax(row)))
        else:
            sub = M[t:, t:]
            sub %= mod
            if not sub.any():
                break
            while not (units := sub % p != 0).any():  # ends: sub is nonzero mod p^(precision-shift)
                sub //= p
                shift += 1
            mod = p ** (precision - shift)
            i0, j0 = divmod(int(np.argmax(units)), sub.shape[1])
        _swap_into_pivot(M, t, t + i0, t + j0)
        inv = pow(int(M[t, t]) % mod, -1, mod)
        colmul = (M[t + 1:, t] % mod * inv) % mod
        M[t + 1:, t + 1:] -= np.outer(colmul, M[t, t + 1:] % mod)
        exps.append(shift)
        t += 1
    return dict(Counter(exps)), min(n, m) - t


def min_carries_histogram_reference(params, chunk: int = 1 << 12) -> dict[int, int]:
    """The full-enumeration histogram: min_carries on every coset 1..k-1, chunk cosets at a time.

    A reference for the orbit histogram, which evaluates one coset per
    orbit of i -> p*i mod k.
    """
    k, half = params.k, params.ext_degree // 2
    counts = np.zeros(half + 1, dtype=np.int64)
    for lo in range(1, k, chunk):
        counts += np.bincount(min_carries(np.arange(lo, min(lo + chunk, k)), params), minlength=half + 1)
    return {j: int(cnt) for j, cnt in enumerate(counts) if cnt}

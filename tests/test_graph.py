import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for
from cyclocrit import graph
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.graph import adjacency, laplacian, verify_srg, write_matrix

# every q <= 256 fixture of the suite, plus one odd-p case at each of q = 729, 625
SRG_REFERENCE_FIXTURES = [
    (2, 3, 2), (5, 3, 1), (3, 5, 1), (2, 3, 3), (2, 3, 4), (2, 5, 2), (11, 3, 1), (3, 7, 1), (5, 3, 2),
]


def dense_verify_srg(table) -> str | None:
    """Reference for verify_srg: the same identities on the dense q x q matrices.

    Returns the detail of the first failure in row-major order, or None.
    """
    P = table.params
    q, k, lam, mu, u, v = P.q, P.k, P.lam, P.mu, P.u, P.v
    A = adjacency(table)

    if not np.array_equal(A, A.T):
        return "adjacency not symmetric"
    if A.diagonal().any():
        return "nonzero diagonal entry"
    deg = A.sum(axis=1)
    if not (deg == k).all():
        i = int(np.argmax(deg != k))
        return f"vertex {i} has degree {int(deg[i])} != {k}"

    I = np.eye(q, dtype=np.int64)
    J = np.ones((q, q), dtype=np.int64)
    lhs = A @ A
    rhs = k * I + lam * A + mu * (J - I - A)
    if not np.array_equal(lhs, rhs):
        i, j = np.unravel_index(int(np.argmax(lhs != rhs)), lhs.shape)
        return f"A^2 identity fails at ({i},{j}): {int(lhs[i, j])} != {int(rhs[i, j])}"

    L = k * I - A
    lhs = (L - u * I) @ (L - v * I)
    rhs = mu * J
    if not np.array_equal(lhs, rhs):
        i, j = np.unravel_index(int(np.argmax(lhs != rhs)), lhs.shape)
        return f"Laplacian identity fails at ({i},{j}): {int(lhs[i, j])} != {int(rhs[i, j])}"
    return None


def srg_detail(table) -> str | None:
    """The message of the MismatchError verify_srg raises, or None when it returns."""
    try:
        verify_srg(table)
    except MismatchError as exc:
        return str(exc)
    return None


def test_clebsch_parameters():
    tab = field_for(2, 3, 2)
    assert verify_srg(tab) is None
    P = tab.params
    assert (P.q, P.k, P.lam, P.mu) == (16, 5, 0, 2)


def test_regularity_and_trace():
    tab = field_for(2, 3, 2)
    A = adjacency(tab)
    L = laplacian(tab)
    assert (A.sum(axis=1) == 5).all()
    assert int(np.trace(L)) == 80
    assert (L.sum(axis=1) == 0).all()


def test_laplacian_quadratic_identity_q16():
    # (L - 8I)(L - 4I) = 2J; expanding, L(L - 12I) = 2J - 32I.
    # (The +32I variant seen in some displays fails on the all-ones vector:
    # uv = mu*q is exactly what makes the factorized form consistent.)
    tab = field_for(2, 3, 2)
    L = laplacian(tab)
    I = np.eye(16, dtype=np.int64)
    J = np.ones((16, 16), dtype=np.int64)
    assert np.array_equal(L @ (L - 12 * I), 2 * J - 32 * I)
    assert np.array_equal((L - 8 * I) @ (L - 4 * I), 2 * J)
    # the dense product stays the reference for verify_srg's scalar form
    for trip in [(5, 3, 1), (3, 5, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        P = tab.params
        L = laplacian(tab)
        I = np.eye(P.q, dtype=np.int64)
        assert np.array_equal((L - P.u * I) @ (L - P.v * I), P.mu * np.ones_like(L))


def test_srg_reports_laplacian_failure():
    tab = field_for(2, 3, 2)
    wrong = dataclasses.replace(tab, params=dataclasses.replace(tab.params, u=tab.params.u + 1))
    with pytest.raises(MismatchError) as err:
        verify_srg(wrong)
    assert str(err.value) == "Laplacian identity fails at (0,0): 1 != 2"


def test_eigenvalue_oracle():
    """Float eigendecomposition as an independent check of u, v and their multiplicities."""
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        P = tab.params
        ev = np.linalg.eigvalsh(laplacian(tab).astype(float))
        counts = Counter(int(round(x)) for x in ev)
        assert counts == {0: 1, P.u: P.k, P.v: P.q - P.k - 1}


def test_q25_basics():
    tab = field_for(5, 3, 1)
    A = adjacency(tab)
    assert A.shape == (25, 25)
    assert (A.sum(axis=1) == 8).all()
    # connected graph: float rank 24 and kernel spanned by all-ones
    L = laplacian(tab)
    assert np.linalg.matrix_rank(L.astype(float)) == 24
    assert (L @ np.ones(25, dtype=np.int64) == 0).all()


def test_srg_fixtures():
    for trip in [(5, 3, 1), (3, 5, 1), (2, 3, 3)]:
        assert verify_srg(field_for(*trip)) is None
    P = field_for(3, 5, 1).params
    assert (P.q, P.k) == (81, 16)


def test_matrix_export(tmp_path):
    tab = field_for(2, 3, 2)
    path = tmp_path / "laplacian.txt"
    write_matrix(str(path), laplacian(tab))
    lines = path.read_text().splitlines()
    assert len(lines) == 16
    first = [int(x) for x in lines[0].split()]
    assert first[0] == 5 and sum(first) == 0


def write_matrix_by_entries(path, M):
    """Reference for write_matrix: every entry formatted on its own."""
    with open(path, "w") as fh:
        for row in M:
            fh.write(" ".join(str(int(x)) for x in row))
            fh.write("\n")


def test_matrix_export_bytes_match_reference(tmp_path):
    tab = field_for(2, 3, 3)  # q = 64
    for M in (laplacian(tab), adjacency(tab)):
        write_matrix(str(tmp_path / "new.txt"), M)
        write_matrix_by_entries(str(tmp_path / "ref.txt"), M)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


@pytest.mark.parametrize("trip", SRG_REFERENCE_FIXTURES)
def test_srg_matches_dense_reference(trip):
    tab = field_for(*trip)
    assert srg_detail(tab) is None and dense_verify_srg(tab) is None
    # the Cayley structure the row-0 check rests on: A[x, y] = A[0, y - x]
    A = adjacency(tab)
    xs = np.arange(tab.q, dtype=np.int64)
    for x in range(tab.q):
        assert np.array_equal(A[x, tab.add_many(xs, x)], A[0])


def neg(tab, x):
    """Index of -x: every base-p digit negated mod p."""
    p = tab.params.p
    return sum(-(x // p**i) % p * p**i for i in range(tab.params.ext_degree))


def _mutate(tab, data):
    """A copy of tab whose connection set lost or gained elements (one to three edits)."""
    S = set(tab.subgroup)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["drop", "drop-pair", "add-nonsymmetric", "add-zero"]))
        if kind == "drop" and S:
            S.discard(data.draw(st.sampled_from(sorted(S))))
        elif kind == "drop-pair" and S:
            s = data.draw(st.sampled_from(sorted(S)))
            S -= {s, neg(tab, s)}
        elif kind == "add-nonsymmetric":
            # -x is kept out unless the characteristic is 2, where x = -x
            outside = sorted(x for x in range(1, tab.q) if x not in S and neg(tab, x) not in S)
            if outside:
                S.add(data.draw(st.sampled_from(outside)))
        elif kind == "add-zero":
            S.add(0)
    return dataclasses.replace(tab, subgroup=frozenset(S))


def _perturb_params(tab, data):
    """A copy of tab with one SRG parameter or eigenvalue off by one, or tab itself."""
    name = data.draw(st.sampled_from([None, "k", "lam", "mu", "u", "v"]))
    if name is None:
        return tab
    delta = data.draw(st.sampled_from([-1, 1]))
    P = tab.params
    return dataclasses.replace(tab, params=dataclasses.replace(P, **{name: getattr(P, name) + delta}))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_srg_mutations_match_dense_reference(data):
    """Same verdict and byte-identical detail as the dense check on broken inputs.

    F_25 joins F_16 and F_64 because only in odd characteristic can an added
    element leave S non-symmetric, and a pair {s, -s} differ from one element.
    """
    tab = field_for(*data.draw(st.sampled_from([(2, 3, 2), (2, 3, 3), (5, 3, 1)])))
    if data.draw(st.booleans()):
        tab = _mutate(tab, data)
    else:
        tab = _perturb_params(tab, data)
    assert srg_detail(tab) == dense_verify_srg(tab)


def test_srg_allocates_no_dense_matrix(monkeypatch):
    def refuse(table):
        raise AssertionError("verify_srg built a dense adjacency matrix")

    monkeypatch.setattr(graph, "adjacency", refuse)
    monkeypatch.setattr(graph, "laplacian", refuse)
    assert verify_srg(field_for(2, 3, 4)) is None


def test_dense_guard(monkeypatch):
    tab = field_for(2, 3, 4)
    monkeypatch.setattr(graph, "DENSE_MAX_BYTES", 256 * 256 * 8)
    assert adjacency(tab).shape == (256, 256)
    monkeypatch.setattr(graph, "DENSE_MAX_BYTES", 256 * 256 * 8 - 1)
    with pytest.raises(BoundExceededError, match="DENSE_MAX_BYTES = 524287"):
        adjacency(tab)
    with pytest.raises(BoundExceededError):
        laplacian(tab)


def test_dense_guard_bounds():
    assert 4096 * 4096 * 8 <= graph.DENSE_MAX_BYTES < 16384 * 16384 * 8


def test_srg_q16384():
    """verify --which srg at q = 2^14 runs in O(q) memory (a dense int64 A alone is 2 GiB).

    A child's ru_maxrss starts from the peak RSS of the process it was exec'd
    from, so the CLI runs under a small launcher that reports its os.wait4.
    """
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "cyclocrit", "verify", "--p", "2", "--ell", "3", "--t", "7", "--which", "srg"]
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], env=env, capture_output=True, text=True)
    out, status = proc.stdout.splitlines(), proc.stdout.splitlines()[-1].split()
    assert int(status[0]) == 0, proc.stderr
    assert out[:-1] == ["srg: pass (16384, 5461, 1848, 1806)"]
    assert int(status[1]) < 100 * 1024  # KiB on Linux

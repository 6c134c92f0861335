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

from conftest import admissible_up_to_table_bound, field_for
from cyclocrit import build_field, graph
from cyclocrit.cli import main
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.field import _digits
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

    # the products run in float64 (BLAS), exactly: for any 0/1 matrix A every
    # partial sum is an integer of magnitude at most q*(q+|u|)*(q+|v|) < 2^53
    I = np.eye(q, dtype=np.int64)
    J = np.ones((q, q), dtype=np.int64)
    Af = A.astype(np.float64)
    lhs = Af @ Af
    rhs = k * I + lam * A + mu * (J - I - A)
    if not np.array_equal(lhs, rhs):
        i, j = np.unravel_index(int(np.argmax(lhs != rhs)), lhs.shape)
        return f"A^2 identity fails at ({i},{j}): {int(lhs[i, j])} != {int(rhs[i, j])}"

    L = k * I - A
    lhs = (L - u * I).astype(np.float64) @ (L - v * I).astype(np.float64)
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


def _srg_cli_peak(p, ell, t):
    """(stdout lines, peak RSS in KiB) of `verify --which srg` at (p, ell, t), which must exit 0.

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
    argv = [sys.executable, "-m", "cyclocrit", "verify", "--p", str(p), "--ell", str(ell), "--t", str(t), "--which", "srg"]
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], env=env, capture_output=True, text=True)
    out, status = proc.stdout.splitlines(), proc.stdout.splitlines()[-1].split()
    assert int(status[0]) == 0, proc.stderr
    return out[:-1], int(status[1])


def test_srg_q16384():
    """verify --which srg at q = 2^14 runs in O(q) memory (a dense int64 A alone is 2 GiB)."""
    out, peak = _srg_cli_peak(2, 3, 7)
    assert out == ["srg: pass (16384, 5461, 1848, 1806)"]
    assert peak < 100 * 1024  # KiB on Linux


@pytest.mark.parametrize(
    "trip, line",
    [((2, 3, 8), "srg: pass (65536, 21845, 7224, 7310)"), ((251, 3, 1), "srg: pass (63001, 21000, 7055, 6972)")],
    ids=["q65536", "q63001"],
)
def test_srg_reach_table_bound(trip, line):
    """The largest q of the table range, in characteristic 2 and at the largest p: one transform each."""
    out, peak = _srg_cli_peak(*trip)
    assert out == [line]
    assert peak < 100 * 1024  # KiB on Linux


def test_srg_every_admissible_triple(monkeypatch):
    """verify_srg passes on all 48 admissible triples with q <= DEFAULT_MAX_Q, every p.

    The transform's row is exact at p = 2 and within the docstring's 1e-9 of
    an integer at odd p, far inside the 1/4 that PrecisionError guards.
    """
    ifftn, errs = np.fft.ifftn, []

    def spy(a, *args, **kwargs):
        out = ifftn(a, *args, **kwargs)
        errs.append(float(np.abs(out.real - np.rint(out.real)).max()))
        return out

    monkeypatch.setattr(np.fft, "ifftn", spy)
    triples = admissible_up_to_table_bound()
    assert len(triples) == 48
    for P in triples:
        assert verify_srg(build_field(P)) is None, (P.p, P.ell, P.t)
    assert len(errs) == 48
    assert all(err == 0 for P, err in zip(triples, errs) if P.p == 2)
    assert max(errs) < 1e-9


def test_srg_rounding_tripwire(monkeypatch, capsys):
    """A transform entry 0.3 from an integer is refused with exit 1, not rounded into a verdict."""
    ifftn = np.fft.ifftn

    def shifted(a, *args, **kwargs):
        out = ifftn(a, *args, **kwargs)
        out.flat[1] += 0.3
        return out

    monkeypatch.setattr(np.fft, "ifftn", shifted)
    code = main(["verify", "--p", "2", "--ell", "3", "--t", "2", "--which", "srg"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: PrecisionError: row 0 of A^2 lies 0.3 from an integer in float64, not under 1/4\n"


def srg_row_by_scan(table) -> np.ndarray:
    """Reference for verify_srg's transform: row 0 of A^2 by k shifted gathers.

    r[d] = #{(s, s') in S^2 : s + s' = d} = sum over s in S of 1_S(d - s),
    one FieldTable.add_many gather per s.  O(q*k*e) work: it reaches past the
    dense reference, but takes tens of seconds at q near 2^16 and odd p.
    """
    S = sorted(table.subgroup)
    ind = np.zeros(table.q, dtype=np.int32)  # int32 halves the gathers' memory traffic; counts stay <= k
    ind[S] = 1
    xs = np.arange(table.q, dtype=np.int32)
    row = np.zeros(table.q, dtype=np.int32)
    for s in neg_indices(table)[S].tolist():
        row += ind[table.add_many(xs, s)]
    return row


def neg_indices(table) -> np.ndarray:
    """Index of -x for every index x, as neg does one at a time."""
    p, e = table.params.p, table.params.ext_degree
    return (-_digits(np.arange(table.q), p, e) % p) @ p ** np.arange(e)


def scan_verify_srg(table) -> str | None:
    """verify_srg's checks up to the A^2 identity, that row from srg_row_by_scan: the first failure's detail, or None."""
    P, S = table.params, table.subgroup
    if not S >= set(neg_indices(table)[sorted(S)].tolist()):
        return "adjacency not symmetric"
    if 0 in S:
        return "nonzero diagonal entry"
    if len(S) != P.k:
        return f"vertex 0 has degree {len(S)} != {P.k}"
    lhs = srg_row_by_scan(table)
    rhs = np.full(table.q, P.mu, dtype=np.int64)
    rhs[sorted(S)] = P.lam
    rhs[0] = P.k
    if not np.array_equal(lhs, rhs):
        j = int(np.argmax(lhs != rhs))
        return f"A^2 identity fails at (0,{j}): {lhs[j]} != {rhs[j]}"
    return None


def scan_mutations(tab):
    """Named broken copies of tab.  Edits of S set k = |S|, so the degree check passes and row 0 is compared."""
    P, S = tab.params, set(tab.subgroup)
    s = min(S)
    x = min(x for x in range(1, tab.q) if x not in S)  # -x is outside S too, as S = -S

    def with_set(T):
        return dataclasses.replace(tab, subgroup=frozenset(T), params=dataclasses.replace(P, k=len(T)))

    yield "drop-pair", with_set(S - {s, neg(tab, s)})
    yield "add-pair", with_set(S | {x, neg(tab, x)})
    yield "drop-one", with_set(S - {max(S)})  # a pair at p = 2, S != -S at odd p
    for name, delta in [("lam", 1), ("mu", -1)]:
        yield f"{name}{delta:+d}", dataclasses.replace(tab, params=dataclasses.replace(P, **{name: getattr(P, name) + delta}))


@pytest.mark.parametrize("trip", [(2, 3, 7), (3, 5, 2)], ids=["q16384", "q6561"])
def test_srg_transform_matches_scan(trip):
    """Same verdict and detail as the k-gather scan, at q beyond the dense reference's reach."""
    tab = field_for(*trip)
    assert srg_detail(tab) is None and scan_verify_srg(tab) is None
    for name, mutant in scan_mutations(tab):
        want = scan_verify_srg(mutant)
        if name == "drop-one" and tab.params.p != 2:
            assert want == "adjacency not symmetric"
        else:
            assert want.startswith("A^2 identity fails at (0,"), name
        assert srg_detail(mutant) == want, name

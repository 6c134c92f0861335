import dataclasses
from collections import Counter

import numpy as np

from conftest import field_for
from cyclocrit.graph import adjacency, laplacian, verify_srg, write_matrix


def test_clebsch_parameters():
    tab = field_for(2, 3, 2)
    report = verify_srg(tab)
    assert report.ok
    assert report.srg_params == (16, 5, 0, 2)


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
    report = verify_srg(wrong)
    assert not report.ok
    assert report.detail == "Laplacian identity fails at (0,0): 1 != 2"


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
        report = verify_srg(field_for(*trip))
        assert report.ok, report.detail
    report = verify_srg(field_for(3, 5, 1))
    assert report.srg_params[0] == 81 and report.srg_params[1] == 16


def test_matrix_export(tmp_path):
    tab = field_for(2, 3, 2)
    path = tmp_path / "laplacian.txt"
    write_matrix(str(path), laplacian(tab))
    lines = path.read_text().splitlines()
    assert len(lines) == 16
    first = [int(x) for x in lines[0].split()]
    assert first[0] == 5 and sum(first) == 0

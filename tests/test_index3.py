import copy
import dataclasses

import numpy as np
import pytest
import sympy

from conftest import params_for
from cyclocrit import (
    closed_walk_poly,
    index3,
    p_part_from_carries,
    p_part_from_recursion,
    p_rank_closed_form,
    recursion_coefficients,
    verify_transfer_matrix,
    verify_walks,
    walk_polys_by_trace,
)
from cyclocrit.cli import main
from cyclocrit.errors import BadResidueError, BoundExceededError, MismatchError
from cyclocrit.index3 import transfer_blocks


def _to_sympy(poly):
    """A polynomial given as rows poly[a][b] of coefficients of x^a y^b, in sympy."""
    x, y = sympy.symbols("x y")
    return sum(int(c) * x**a * y**b for a, row in enumerate(poly) for b, c in enumerate(row))


def _rows(block, i=0, j=0):
    """Entry (i, j) of a (dx, dy, n, m) polynomial-matrix array as rows of coefficients."""
    return block[:, :, i, j].tolist()


def test_coefficients_p2():
    P, Q, R = recursion_coefficients(2)
    x, y = sympy.symbols("x y")
    base = x**2 * y**2 + x**2 * y + x * y**2 + x + y + 1
    assert sympy.expand(_to_sympy(P) - base) == 0  # the (p-2)/3 term vanishes
    assert sympy.expand(_to_sympy(Q) - (x * y * base + 3 * x**2 * y**2)) == 0
    assert _to_sympy(R) == 4 * x**3 * y**3


def test_coefficients_p5():
    P, Q, R = recursion_coefficients(5)
    assert _to_sympy(R) == 25 * sympy.symbols("x") ** 3 * sympy.symbols("y") ** 3
    assert P[1][1] == 3  # 3 ((p-2)/3)^2 = 3


def test_bad_residue():
    for p in (3, 7, 13):
        with pytest.raises(BadResidueError):
            recursion_coefficients(p)
    with pytest.raises(BadResidueError):
        p_part_from_recursion(params_for(3, 5, 1))  # admissible, but ell = 5


def test_walk_poly_seed():
    P, _, _ = recursion_coefficients(2)
    assert closed_walk_poly(2, 1) == [[2 * c for c in row] for row in P]


def test_walk_poly_second_seed_via_sympy():
    """C(4) = 2(P^2 - 2Q), expanded independently."""
    P, Q, _ = recursion_coefficients(2)
    want = sympy.expand(2 * (_to_sympy(P) ** 2 - 2 * _to_sympy(Q)))
    assert sympy.expand(_to_sympy(closed_walk_poly(2, 2)) - want) == 0
    c4 = closed_walk_poly(2, 2)
    assert c4[0][1] == 4
    assert c4[0][2] == 2
    assert c4[1][2] == 0


def test_recursion_step_via_sympy():
    """C(8) from the three-term recursion against a direct expansion."""
    p = 2
    P, Q, R = (_to_sympy(f) for f in recursion_coefficients(p))
    seq = [2 * P, sympy.expand(2 * (P**2 - 2 * Q)), sympy.expand(6 * R + 2 * P**3 - 6 * P * Q)]
    seq.append(sympy.expand(P * seq[2] - Q * seq[1] + R * seq[0]))
    assert sympy.expand(_to_sympy(closed_walk_poly(p, 4)) - seq[3]) == 0


def test_transfer_matrix_identities():
    for p in (2, 5, 11):
        verify_transfer_matrix(p)


def _at(poly, x0=10**12, y0=10**100):
    """A polynomial matrix array, or a polynomial given as rows, evaluated exactly at (x0, y0).

    An entry is zero only for the zero polynomial while its coefficients
    stay below x0 / 2 and its x-degree below 8.
    """
    if isinstance(poly, list):
        return sum(c * x0**a * y0**b for a, row in enumerate(poly) for b, c in enumerate(row))
    return sum(poly[a, b] * x0**a * y0**b for a, b in np.ndindex(poly.shape[:2]))


@pytest.mark.parametrize("p", [2, 5, 11])
@pytest.mark.parametrize(
    ("name", "source", "slot"),
    [
        ("X", "transfer_blocks", 0),
        ("Y", "transfer_blocks", 1),
        ("P", "recursion_coefficients", 0),
        ("Q", "recursion_coefficients", 1),
        ("R", "recursion_coefficients", 2),
    ],
)
def test_transfer_matrix_catches_each_unit_bump(monkeypatch, p, name, source, slot):
    """+1 on any one coefficient of X, Y, P, Q or R fails the 6x6 check at the first power it changes.

    That is t = 1 for P, t = 2 for Q and t = 3 for R.  For X and Y the
    first t with 2 tr (XY)^t != C(2t) is found here from the bumped
    blocks evaluated at one point, not from the package's trace loop.
    """
    good = getattr(index3, source)
    C = [_at(closed_walk_poly(p, t)) for t in (1, 2, 3)]
    part = good(p)[slot]
    entries = np.ndindex(part.shape) if name in "XY" else [(a, b) for a, row in enumerate(part) for b in range(len(row))]
    for entry in entries:

        def bumped(p, entry=entry):
            parts = copy.deepcopy(good(p))
            if name in "XY":
                parts[slot][entry] += 1
            else:
                parts[slot][entry[0]][entry[1]] += 1
            return tuple(parts)

        monkeypatch.setattr(index3, source, bumped)
        if name in "XY":
            X, Y = (_at(block) for block in bumped(p))
            traces = [2 * np.trace(np.linalg.matrix_power(X @ Y, t)) for t in (1, 2, 3)]
            first = next(t for t in (1, 2, 3) if traces[t - 1] != C[t - 1])
        else:
            first = "PQR".index(name) + 1
        want = f"transfer matrix char poly mismatch for p={p}: 2 tr (XY)^{first} != C({2 * first})"
        with pytest.raises(MismatchError) as err:
            verify_transfer_matrix(p)
        assert str(err.value) == want, entry


def test_transfer_matrix_exits_2_under_optimize(optimized_runs):
    """The 6x6 check is a raise, so python -O still reports a bumped transfer block."""
    code, out, err = optimized_runs["transfer-matrix"]
    assert (code, out) == (2, ""), err
    assert err == "mismatch: transfer matrix char poly mismatch for p=2: 2 tr (XY)^1 != C(2)\n"


SHORT_SLOTS = "C(16)(1, 1) = 131076 does not fit the 16-bit coefficient slots"


def test_short_slots_exit_2(monkeypatch, capsys):
    """Slots two bits short of C(2t)(1, 1) at (2, 3, 8) hold every coefficient, yet the run exits 2."""
    good = index3._slot_bits
    assert max(map(max, closed_walk_poly(2, 8))) < 1 << 16 <= 2 * (2**16 + 2)
    monkeypatch.setattr(index3, "_slot_bits", lambda p, t: good(p, t) - 2)
    assert main(["compute", "--p", "2", "--ell", "3", "--t", "8", "--method", "formula"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"mismatch: {SHORT_SLOTS}\n")


def test_short_slots_exit_2_under_optimize(optimized_runs):
    """The slot check is a raise, so python -O reports it too."""
    code, out, err = optimized_runs["short-slots"]
    assert (code, out, err) == (2, "", f"mismatch: {SHORT_SLOTS}\n")


@pytest.mark.parametrize("p", [2, 5, 11])
def test_packed_recursion_matches_trace_oracle(p):
    """The whole (2t+1) x (2t+1) C(2t), t <= 6, equals the digraph trace, entry by entry."""
    for t, walks in enumerate(walk_polys_by_trace(p, 6), start=1):
        C = closed_walk_poly(p, t)
        assert [len(row) for row in C] == [2 * t + 1] * (2 * t + 1)
        padded = np.zeros((2 * t + 1, 2 * t + 1), dtype=object)
        trace = walks[:, :, 0, 0]
        assert not trace[2 * t + 1 :].any() and not trace[:, 2 * t + 1 :].any()
        padded[: trace.shape[0], : trace.shape[1]] = trace[: 2 * t + 1, : 2 * t + 1]
        assert padded.tolist() == C, t


@pytest.mark.parametrize("p", [2, 5, 11, 17, 23])
def test_transfer_blocks_charpoly_via_sympy(p):
    """sympy's charpoly of [[0, X], [Y, 0]] is z^6 - P z^4 + Q z^2 - R."""
    X, Y = transfer_blocks(p)
    M = sympy.zeros(6, 6)
    for i in range(3):
        for j in range(3):
            M[i, 3 + j] = _to_sympy(_rows(X, i, j))
            M[3 + i, j] = _to_sympy(_rows(Y, i, j))
    z = sympy.symbols("z")
    P, Q, R = (_to_sympy(f) for f in recursion_coefficients(p))
    got = M.charpoly(z).as_expr()
    assert sympy.expand(got - (z**6 - P * z**4 + Q * z**2 - R)) == 0


def test_walk_oracle_matches_recursion():
    for p in (2, 5):
        verify_walks(p, t_max=4)


def test_walk_oracle_p11_t2():
    assert _rows(walk_polys_by_trace(11, 2)[-1]) == closed_walk_poly(11, 2)


def test_wrong_R_fails_both_anchors(monkeypatch, capsys):
    """R = (p^2 + 1) x^3 y^3 is caught by the transfer matrix, the walk oracle and the CLI."""
    right = index3.recursion_coefficients

    def wrong(p):
        P, Q, R = right(p)
        R = [row[:] for row in R]
        R[3][3] += 1
        return P, Q, R

    monkeypatch.setattr(index3, "recursion_coefficients", wrong)
    for p in (2, 5):
        with pytest.raises(MismatchError, match="char poly"):
            verify_transfer_matrix(p)
        with pytest.raises(MismatchError, match="t=3"):
            verify_walks(p, 3)
    assert main(["verify", "--p", "2", "--ell", "3", "--t", "3", "--which", "walks"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "mismatch" in err


@pytest.mark.parametrize("t, dtype", [(10, np.float64), (11, np.int64)])
def test_walk_oracle_float64_below_2_53(monkeypatch, t, dtype):
    """8 * 5^21 < 2^53 <= 8 * 5^23: at p = 5 the traces run in float64 at t = 10, in int64 at t = 11.

    On both sides the oracle equals the recursion, and the traces come back as int64.
    """
    assert (8 * 5 ** (2 * t + 1) < 1 << 53) == (dtype == np.float64)
    seen, good = [], index3._walk_traces

    def recording(X, Y, t_max):
        seen.append(X.dtype)
        return good(X, Y, t_max)

    monkeypatch.setattr(index3, "_walk_traces", recording)
    verify_walks(5, t)
    assert all(walks.dtype == np.int64 for walks in walk_polys_by_trace(5, t))
    assert seen == [dtype, dtype]


def test_walk_oracle_refuses_int64_overflow(capsys):
    """8 p^(2t+1) >= 2^63 at p = 107, t = 4: refused before any work, exit 1."""
    with pytest.raises(BoundExceededError, match="2\\^63"):
        walk_polys_by_trace(107, 4)
    assert main(["verify", "--p", "107", "--ell", "3", "--t", "4", "--which", "walks"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "BoundExceeded" in err and str(8 * 107**9) in err


def test_p_rank_closed_form_values():
    assert p_rank_closed_form(2, 2) == 6
    assert p_rank_closed_form(2, 3) == 14
    assert p_rank_closed_form(2, 4) == 30
    assert p_rank_closed_form(5, 1) == 8


def test_multiplicities_q16():
    assert p_part_from_recursion(params_for(2, 3, 2)) == {0: 6, 2: 4, 3: 1, 5: 4}


def test_multiplicities_q25():
    assert p_part_from_recursion(params_for(5, 3, 1)) == {0: 8, 1: 10, 2: 6}


def test_multiplicities_q256_published():
    e = p_part_from_recursion(params_for(2, 3, 4))
    assert e[0] == 30
    assert [e.get(j, 0) for j in range(1, 10)] == [32, 8, 16, 84, 1, 16, 8, 32, 28]


def test_excluded_case():
    """(p, t) = (2, 1) is refused even in Params that validate would not build (the graph is disconnected)."""
    with pytest.raises(BadResidueError, match="excluded"):
        p_part_from_recursion(dataclasses.replace(params_for(2, 3, 2), t=1))


@pytest.mark.parametrize(("p", "t"), [(2, 158), (5, 119), (11, 104)])
def test_walk_work_bound_refused_before_recursion(monkeypatch, p, t):
    """The last t inside WALK_WORK_BOUND reaches the recursion; t + 1 is refused before it."""

    def reached(p, t):
        raise RuntimeError(f"recursion reached at t = {t}")

    monkeypatch.setattr(index3, "closed_walk_poly", reached)
    with pytest.raises(RuntimeError, match=f"at t = {t}$"):
        p_part_from_recursion(params_for(p, 3, t))
    with pytest.raises(BoundExceededError, match=f"^p = {p}, t = {t + 1}: t\\^3 log2 p exceeds"):
        p_part_from_recursion(params_for(p, 3, t + 1))


def test_recursion_matches_enumeration():
    """Closed form against the general-ell carry enumeration.

    Both routes hand their lower half e_0 .. e_(t-1) to the one assembly,
    params.p_part_from_lower_half, so this compares the two lower halves
    (walk coefficient sums against the carry histogram): the only parts
    they compute independently.
    """
    for p, t in [(2, 2), (2, 3), (2, 4), (5, 1), (5, 2), (11, 1), (2, 6)]:
        P = params_for(p, 3, t)
        assert p_part_from_recursion(P) == p_part_from_carries(P)

import pytest
import sympy

from conftest import params_for
from cyclocrit import (
    closed_walk_poly,
    p_part_from_carries,
    p_part_from_recursion,
    p_rank_closed_form,
    recursion_coefficients,
    verify_transfer_matrix,
    verify_walks,
    walk_poly_by_trace,
)
from cyclocrit.errors import BadResidueError
from cyclocrit.index3 import BivarPoly


def _to_sympy(poly: BivarPoly):
    x, y = sympy.symbols("x y")
    return sum(c * x**a * y**b for (a, b), c in poly.terms.items())


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
    assert P.coeff(1, 1) == 3  # 3 ((p-2)/3)^2 = 3


def test_bad_residue():
    for p in (3, 7, 13):
        with pytest.raises(BadResidueError):
            recursion_coefficients(p)
    with pytest.raises(BadResidueError):
        p_part_from_recursion(7, 2)


def test_walk_poly_seed():
    P, _, _ = recursion_coefficients(2)
    assert closed_walk_poly(2, 1) == P.scale(2)


def test_walk_poly_second_seed_via_sympy():
    """C(4) = 2(P^2 - 2Q), expanded independently."""
    P, Q, _ = recursion_coefficients(2)
    want = sympy.expand(2 * (_to_sympy(P) ** 2 - 2 * _to_sympy(Q)))
    assert sympy.expand(_to_sympy(closed_walk_poly(2, 2)) - want) == 0
    c4 = closed_walk_poly(2, 2)
    assert c4.coeff(0, 1) == 4
    assert c4.coeff(0, 2) == 2
    assert c4.coeff(1, 2) == 0


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


def test_walk_oracle_matches_recursion():
    for p in (2, 5):
        verify_walks(p, t_max=4)


def test_walk_oracle_p11_t2():
    assert walk_poly_by_trace(11, 2) == closed_walk_poly(11, 2)


def test_p_rank_closed_form_values():
    assert p_rank_closed_form(2, 2) == 6
    assert p_rank_closed_form(2, 3) == 14
    assert p_rank_closed_form(2, 4) == 30
    assert p_rank_closed_form(5, 1) == 8


def test_multiplicities_q16():
    assert p_part_from_recursion(2, 2) == {0: 6, 2: 4, 3: 1, 5: 4}


def test_multiplicities_q25():
    assert p_part_from_recursion(5, 1) == {0: 8, 1: 10, 2: 6}


def test_multiplicities_q256_published():
    e = p_part_from_recursion(2, 4)
    assert e[0] == 30
    assert [e.get(j, 0) for j in range(1, 10)] == [32, 8, 16, 84, 1, 16, 8, 32, 28]


def test_excluded_case():
    with pytest.raises(BadResidueError):
        p_part_from_recursion(2, 1)


def test_params_must_match_p_and_t():
    """Params for another triple raise ValueError, under python -O too (no assert)."""
    for p, t, other in [(2, 3, (2, 3, 2)), (5, 1, (2, 3, 2)), (2, 2, (2, 5, 2))]:
        with pytest.raises(ValueError, match="params are for"):
            p_part_from_recursion(p, t, params_for(*other))


def test_recursion_matches_enumeration():
    """Closed form against the general-ell carry enumeration."""
    for p, t in [(2, 2), (2, 3), (2, 4), (5, 1), (5, 2), (11, 1), (2, 6)]:
        P = params_for(p, 3, t)
        assert p_part_from_recursion(p, t, P) == p_part_from_carries(P)

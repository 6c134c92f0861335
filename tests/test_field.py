import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_for, params_for
from cyclocrit import build_field, field
from cyclocrit.errors import BoundExceededError, MismatchError, ZeroElementError
from cyclocrit.field import smallest_irreducible


def test_subgroup_size_and_identity():
    t16 = field_for(2, 3, 2)
    assert len(t16.subgroup) == 5
    assert 1 in t16.subgroup
    # S = powers of alpha^ell
    gen_cubed = t16.pow(t16.generator, 3)
    expect = {t16.pow(gen_cubed, j) for j in range(5)}
    assert t16.subgroup == frozenset(expect)


def test_minus_one_in_subgroup():
    # -1 = alpha^((q-1)/2) and ell divides (q-1)/2 for every admissible triple
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        tab = field_for(*trip)
        minus_one = tab.neg(1)
        assert minus_one in tab.subgroup
        if tab.params.p != 2:
            assert int(tab.dlog[minus_one]) == (tab.q - 1) // 2
    assert int(field_for(5, 3, 1).dlog[field_for(5, 3, 1).neg(1)]) == 12


def test_subgroup_alternative_characterization():
    # S = {x != 0 : x^k = 1}, exhaustively
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        k = tab.params.k
        roots = {x for x in range(1, tab.q) if tab.pow(x, k) == 1}
        assert roots == set(tab.subgroup)


def test_subgroup_closure():
    tab = field_for(5, 3, 1)
    S = tab.subgroup
    for a in S:
        assert tab.inv(a) in S
        for b in S:
            assert tab.mul(a, b) in S


def test_coset_index_basics():
    tab = field_for(5, 3, 1)
    assert tab.coset_index(1) == 0
    assert tab.coset_index(tab.generator) == 1
    a = tab.pow(tab.generator, 4)  # coset 1
    b = tab.pow(tab.generator, 7)  # coset 1
    assert tab.coset_index(tab.mul(a, b)) == 2
    with pytest.raises(ZeroElementError):
        tab.coset_index(0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coset_homomorphism(data):
    tab = field_for(2, 3, 3)
    x = data.draw(st.integers(1, tab.q - 1))
    y = data.draw(st.integers(1, tab.q - 1))
    lhs = tab.coset_index(tab.mul(x, y))
    assert lhs == (tab.coset_index(x) + tab.coset_index(y)) % 3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_field_axiom_spot_checks(data):
    tab = field_for(5, 3, 1)
    q = tab.q
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert tab.add(x, y) == tab.add(y, x)
    assert tab.mul(x, y) == tab.mul(y, x)
    assert tab.mul(x, tab.add(y, z)) == tab.add(tab.mul(x, y), tab.mul(x, z))
    assert tab.add(x, tab.neg(x)) == 0
    if x:
        assert tab.mul(x, tab.inv(x)) == 1


def test_dlog_antilog_roundtrip():
    tab = field_for(2, 3, 2)
    for x in range(1, tab.q):
        assert int(tab.antilog[int(tab.dlog[x])]) == x
    assert sorted(int(v) for v in tab.antilog) == list(range(1, tab.q))


def test_add_many_matches_scalar():
    tab = field_for(3, 5, 1)
    xs = np.arange(tab.q, dtype=np.int64)
    for s in list(tab.subgroup)[:5]:
        vec = tab.add_many(xs, s)
        for x in range(tab.q):
            assert int(vec[x]) == tab.add(x, s)


def add_many_by_digits(tab, xs, s):
    """Reference for add_many at odd p: digitwise sum mod p, re-encoded by a matmul."""
    p, e = tab.params.p, tab.params.ext_degree
    D = tab.digit_table().T
    return ((D[xs] + np.array(tab.coeffs(s))) % p) @ (p ** np.arange(e))


def _digits_only_table(p, e):
    """A FieldTable carrying only what digit arithmetic reads, for F_p^e outside the graph family."""
    params = dataclasses.replace(params_for(3, 5, 1), p=p, ell=e + 1, t=1, q=p**e)
    return dataclasses.replace(field_for(3, 5, 1), params=params, _digit_table=None)


@pytest.mark.parametrize("tab", [field_for(5, 3, 1), _digits_only_table(3, 3)], ids=["F25", "F27"])
def test_add_many_carry_formula_every_shift(tab):
    xs32 = np.arange(tab.q, dtype=np.int32)
    for s in range(tab.q):
        want = add_many_by_digits(tab, xs32, s)
        got = tab.add_many(xs32, s)
        assert got.dtype == np.int32 and np.array_equal(got, want), s
        assert np.array_equal(tab.add_many(xs32[::-1].astype(np.int64), s), want[::-1])


def test_add_many_carry_formula_q15625():
    tab = field_for(5, 3, 3)
    xs = np.arange(tab.q, dtype=np.int32)
    rng = np.random.default_rng(500)
    for s in rng.integers(0, tab.q, 500).tolist():
        assert np.array_equal(tab.add_many(xs, s), add_many_by_digits(tab, xs, s)), s


def test_deterministic_construction():
    a = build_field(params_for(5, 3, 1))
    b = build_field(params_for(5, 3, 1))
    assert a.mod_poly == b.mod_poly
    assert a.generator == b.generator
    assert np.array_equal(a.dlog, b.dlog)


def test_known_small_irreducibles():
    # degree-6 over F_3 was a regression: x^6 + x + 1 is reducible there
    coeffs = smallest_irreducible(3, 6)
    assert coeffs != (1, 1, 0, 0, 0, 0)
    # irreducibility witnessed by the table build succeeding
    build_field(params_for(3, 7, 1))
    assert smallest_irreducible(2, 1) == (1,)  # x + 1


def test_bound_enforced():
    with pytest.raises(BoundExceededError):
        build_field(params_for(2, 3, 2), max_q=8)


def test_reducible_modulus_is_a_mismatch(monkeypatch):
    # x^4 + 1 = (x + 1)^4 over F_2: the "field" has zero divisors
    monkeypatch.setattr(field, "smallest_irreducible", lambda p, e: (1, 0, 0, 0))
    with pytest.raises(MismatchError, match="not irreducible"):
        build_field(params_for(2, 3, 2))


def test_reducible_modulus_exits_2_under_optimize(tmp_path):
    """The table checks are raises, so python -O exports no adjacency of a corrupt table."""
    path = tmp_path / "adj.txt"
    script = (
        "import sys\n"
        "from cyclocrit import cli, field\n"
        "field.smallest_irreducible = lambda p, e: (1, 0, 0, 0)\n"
        "sys.exit(cli.main(['compute', '--p', '2', '--ell', '3', '--t', '2', '--method', 'formula',\n"
        f"                  '--export-adjacency', {str(path)!r}]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("mismatch:")
    assert proc.stdout == ""
    assert not path.exists()

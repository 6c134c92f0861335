import dataclasses
import hashlib
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem, gf_strip

from conftest import admissible, field_for, params_for
from cyclocrit import build_field, field
from cyclocrit.errors import BoundExceededError, MismatchError
from cyclocrit.field import smallest_irreducible

# --- polynomial reference: sympy's F_p[x] arithmetic on the digits of an index ---


def modulus(p, f):
    """x^e + f (f the low coefficients) as a big-endian sympy coefficient list."""
    return [1, *reversed(f)]


def to_poly(tab, x):
    p, e = tab.params.p, tab.params.ext_degree
    return gf_strip([x // p**i % p for i in reversed(range(e))])


def to_index(tab, f):
    return sum(c * tab.params.p**i for i, c in enumerate(reversed(f)))


def poly_mul(tab, x, y):
    p = tab.params.p
    return to_index(tab, gf_rem(gf_mul(to_poly(tab, x), to_poly(tab, y), p, ZZ), modulus(p, tab.mod_poly), p, ZZ))


def poly_pow(tab, x, n):
    p = tab.params.p
    return to_index(tab, gf_pow_mod(to_poly(tab, x), n, modulus(p, tab.mod_poly), p, ZZ))


def table_mul(tab, x, y):
    """x * y through the dlog/antilog tables."""
    if x == 0 or y == 0:
        return 0
    return int(tab.antilog[(tab.dlog[x] + tab.dlog[y]) % (tab.q - 1)])


def table_add(tab, x, y):
    return int(tab.add_many(np.array([x]), y)[0])


# --- the constructions, against independent references ---

BERLEKAMP_CASES = [(2, 8), (3, 5), (5, 3), (7, 2), (11, 2)]  # (p, largest degree)


def test_berlekamp_matches_sympy_exhaustively():
    """Every monic f with f(0) != 0 of degree 1..E over F_p: the Berlekamp test agrees with sympy."""
    checked = 0
    for p, top in BERLEKAMP_CASES:
        for e in range(1, top + 1):
            for v in range(p**e):
                f = tuple(v // p**i % p for i in range(e))
                if f[0]:
                    assert field._is_irreducible(f, p) == gf_irreducible_p(modulus(p, f), p, ZZ), (p, f)
                    checked += 1
    assert checked == 789


# --- the shared Z/m[X]/(f) arithmetic: field at m = p, Galois ring at m = p^N ---


def _little_endian(poly, e):
    """Big-endian sympy coefficients as a little-endian list of length e."""
    return (list(reversed(poly)) + [0] * e)[:e]


@pytest.mark.parametrize(
    "p, f, N",
    [(2, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 19), (5, (2, 1, 0, 0, 0, 0), 4), (251, (6, 1), 3),
     (3, (2,), 5), (7, (3, 0, 6, 1), 3), (2, (0, 1, 1), 9)],
)
def test_times_table_mod_p_is_the_field_table(p, f, N):
    """Reducing the ring's X^(i+j) table mod p gives the field's, for irreducible and reducible f alike."""
    W = field._times_table(f, p**N)
    assert W.shape == (len(f),) * 3 and W.dtype == np.int64
    assert np.array_equal(W % p, field._times_table(f, p))
    assert np.array_equal(W[0], np.eye(len(f), dtype=np.int64))  # X^i * 1 = X^i


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_product_and_power_match_sympy(p, e):
    """a @ T(b) and row 0 of T(b)^n at m = p equal sympy's gf_mul + gf_rem and gf_pow_mod modulo a random monic f."""
    rng = np.random.default_rng(100 * p + e)
    for _ in range(20):
        f = tuple(rng.integers(0, p, e).tolist())
        W = field._times_table(f, p)
        a, b = rng.integers(0, p, (2, e))
        n = int(rng.integers(1, 40))
        T = field._times_matrix(b, W, p)
        poly_a, poly_b = gf_strip(a[::-1].tolist()), gf_strip(b[::-1].tolist())
        want = gf_rem(gf_mul(poly_a, poly_b, p, ZZ), modulus(p, f), p, ZZ)
        assert field._mul(a, T, p).tolist() == _little_endian(want, e), (f, a, b)
        assert field._power(T, n, p)[0].tolist() == _little_endian(gf_pow_mod(poly_b, n, modulus(p, f), p, ZZ), e)


ADMISSIBLE_Q4096 = admissible(4096)


@pytest.mark.parametrize("P", ADMISSIBLE_Q4096, ids=lambda P: f"{P.p}-{P.ell}-{P.t}")
def test_modulus_and_generator_are_the_least(P):
    """mod_poly is the first sympy-irreducible candidate in index order; the generator the least of full order."""
    tab = field_for(P.p, P.ell, P.t)
    p, e, q = P.p, P.ext_degree, P.q
    first = sum(c * p**i for i, c in enumerate(tab.mod_poly))
    assert gf_irreducible_p(modulus(p, tab.mod_poly), p, ZZ)
    for v in range(first):
        assert not gf_irreducible_p(modulus(p, [v // p**i % p for i in range(e)]), p, ZZ), v
    full_order = [x for x in range(1, q) if gcd(int(tab.dlog[x]), q - 1) == 1]
    assert tab.generator == full_order[0]


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1), (3, 7, 1)])
def test_antilog_lists_generator_powers(trip):
    """antilog[j] is generator^j, taken step by step with sympy polynomial products."""
    tab = field_for(*trip)
    x = 1
    for j in range(tab.q - 1):
        assert int(tab.antilog[j]) == x, j
        x = poly_mul(tab, x, tab.generator)
    assert x == 1


# mod_poly, generator and the leading 32 hex digits of sha256(antilog as little-endian int64)
TABLE_DIGESTS = {
    (2, 3, 6): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0), 3, "f93111f2d5d03cbd58220f842d679e03"),
    (5, 3, 3): ((2, 1, 0, 0, 0, 0), 5, "46e0e83ab73fbe9641effea57dc067f7"),
    (101, 3, 1): ((2, 0), 102, "b155960eeb739ddd74dddc7e2c493ef4"),
    (2, 3, 8): ((1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 3, "a9c0b9735a82fc72c5287527e2930d5f"),
}


@pytest.mark.parametrize("trip", TABLE_DIGESTS)
def test_table_digests(trip):
    """The tables are pinned: any change of modulus, generator or fill order shows here."""
    tab = build_field(params_for(*trip))
    digest = hashlib.sha256(tab.antilog.astype("<i8").tobytes()).hexdigest()[:32]
    assert (tab.mod_poly, tab.generator, digest) == TABLE_DIGESTS[trip]
    assert tab.antilog.dtype == tab.dlog.dtype == np.int64


# --- the tables' properties ---


def test_subgroup_size_and_identity():
    t16 = field_for(2, 3, 2)
    assert len(t16.subgroup) == 5
    assert 1 in t16.subgroup
    # S = powers of alpha^ell
    gen_cubed = poly_pow(t16, t16.generator, 3)
    expect = {poly_pow(t16, gen_cubed, j) for j in range(5)}
    assert t16.subgroup == frozenset(expect)


def test_minus_one_in_subgroup():
    # -1 = alpha^((q-1)/2) and ell divides (q-1)/2 for every admissible triple
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3), (3, 5, 1)]:
        tab = field_for(*trip)
        minus_one = tab.params.p - 1
        assert table_add(tab, minus_one, 1) == 0
        assert minus_one in tab.subgroup
        if tab.params.p != 2:
            assert int(tab.dlog[minus_one]) == (tab.q - 1) // 2
    assert int(field_for(5, 3, 1).dlog[4]) == 12


def test_subgroup_alternative_characterization():
    # S = {x != 0 : x^k = 1}, exhaustively
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        k = tab.params.k
        roots = {x for x in range(1, tab.q) if poly_pow(tab, x, k) == 1}
        assert roots == set(tab.subgroup)


def test_subgroup_closure():
    tab = field_for(5, 3, 1)
    S = tab.subgroup
    for a in S:
        assert poly_pow(tab, a, tab.q - 2) in S  # the inverse
        for b in S:
            assert poly_mul(tab, a, b) in S


def test_coset_index_basics():
    """The coset index of x is dlog(x) mod ell; zero has none and is marked -1."""
    tab = field_for(5, 3, 1)
    assert tab.dlog[1] % 3 == 0
    assert tab.dlog[tab.generator] % 3 == 1
    a = poly_pow(tab, tab.generator, 4)  # coset 1
    b = poly_pow(tab, tab.generator, 7)  # coset 1
    assert tab.dlog[poly_mul(tab, a, b)] % 3 == 2
    assert tab.dlog[0] == -1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coset_homomorphism(data):
    """dlog(xy) = dlog(x) + dlog(y) mod q-1, the product taken in F_2[x]/(mod_poly); mod ell follows."""
    tab = field_for(2, 3, 3)
    x = data.draw(st.integers(1, tab.q - 1))
    y = data.draw(st.integers(1, tab.q - 1))
    assert tab.dlog[poly_mul(tab, x, y)] == (tab.dlog[x] + tab.dlog[y]) % (tab.q - 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_field_axiom_spot_checks(data):
    """Table arithmetic is polynomial arithmetic, and obeys the field axioms."""
    tab = field_for(5, 3, 1)
    q = tab.q
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert table_mul(tab, x, y) == poly_mul(tab, x, y) == table_mul(tab, y, x)
    assert table_add(tab, x, y) == table_add(tab, y, x)
    assert table_mul(tab, x, table_add(tab, y, z)) == table_add(tab, table_mul(tab, x, y), table_mul(tab, x, z))
    assert table_add(tab, x, table_mul(tab, tab.params.p - 1, x)) == 0
    if x:
        assert table_mul(tab, x, int(tab.antilog[-tab.dlog[x] % (q - 1)])) == 1


def test_dlog_antilog_roundtrip():
    tab = field_for(2, 3, 2)
    assert tab.dlog[1] == 0 and tab.dlog[tab.generator] == 1
    for x in range(1, tab.q):
        assert int(tab.antilog[int(tab.dlog[x])]) == x
    assert sorted(int(v) for v in tab.antilog) == list(range(1, tab.q))


def test_field_table_is_frozen():
    """A FieldTable is shared between the graph, the ring and the exports, so no field can be reassigned."""
    tab = field_for(2, 3, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tab.generator = 3


def add_many_by_digits(tab, xs, s):
    """Reference for add_many at odd p: digitwise sum mod p, re-encoded by a matmul."""
    p, e = tab.params.p, tab.params.ext_degree
    return ((field._digits(xs, p, e) + s // p ** np.arange(e)) % p) @ (p ** np.arange(e))


def _digits_only_table(p, e):
    """A FieldTable carrying only what digit arithmetic reads, for F_p^e outside the graph family."""
    params = dataclasses.replace(params_for(3, 5, 1), p=p, ell=e + 1, t=1, q=p**e)
    return dataclasses.replace(field_for(3, 5, 1), params=params)


@pytest.mark.parametrize(
    "tab", [field_for(5, 3, 1), _digits_only_table(3, 3), field_for(3, 5, 1)], ids=["F25", "F27", "F81"]
)
def test_add_many_carry_formula_every_shift(tab):
    xs32 = np.arange(tab.q, dtype=np.int32)
    p, e = tab.params.p, tab.params.ext_degree
    assert np.array_equal(field._digits(xs32, p, e).T, [[x // p**i % p for x in range(tab.q)] for i in range(e)])
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


def test_bound_enforced(monkeypatch):
    """q = 2^18 is refused before any table work: not even the modulus search runs."""

    def refuse(p, e):
        raise AssertionError("modulus search ran past the table bound")

    monkeypatch.setattr(field, "smallest_irreducible", refuse)
    with pytest.raises(BoundExceededError, match=f"q = {1 << 18} exceeds the table bound {1 << 16}"):
        build_field(params_for(2, 3, 9))


def test_build_field_memory():
    """build_field at (2, 3, 8), q = 2^16, peaks under 5 MB (tracemalloc; 4.65 MB measured).

    The powers of the generator come in chunks of at most BATCH_BYTES; the (q-1, e) int64 digits of
    every power at once would take 8.4 MB.
    """
    P = params_for(2, 3, 8)
    tracemalloc.start()
    try:
        build_field(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


def test_reducible_modulus_is_a_mismatch(monkeypatch):
    # x^4 + 1 = (x + 1)^4 over F_2: the "field" has zero divisors
    monkeypatch.setattr(field, "smallest_irreducible", lambda p, e: (1, 0, 0, 0))
    with pytest.raises(MismatchError, match="not irreducible"):
        build_field(params_for(2, 3, 2))


def test_reducible_modulus_exits_2_under_optimize(optimized_runs):
    """The table checks are raises, so python -O exports no adjacency of a corrupt table."""
    code, out, err = optimized_runs["reducible-modulus"]
    assert code == 2, err
    assert err.startswith("mismatch:")
    assert out == ""
    assert not (optimized_runs.tmp / "adj.txt").exists()

import pickle
import random

import pytest

from conftest import field_for, params_for, ring_for, snf_group_for
from cyclocrit import carry_count, galois, jacobi_sum, p_part_from_carries
from cyclocrit.errors import MismatchError, ZeroElementError
from cyclocrit.galois import (
    GaloisRing,
    block_p_multiplicities,
    expected_block_valuations,
    jacobi_row,
    laplacian_block,
    laplacian_block_zero,
    ring_divisor_valuations,
    verify_all_blocks,
    verify_block,
    verify_stickelberger,
)


def test_ring_basics():
    ring = ring_for(2, 3, 2)
    one, zero = ring.one(), ring.zero()
    assert ring.add(one, ring.neg(one)) == zero
    assert ring.mul(one, one) == one
    assert ring.valuation(zero) is None
    assert ring.valuation(one) == 0
    assert ring.valuation(ring.scalar(2)) == 1
    assert ring.valuation(ring.scalar(ring.field.params.q)) == 4


def test_reduction_compatibility():
    ring = ring_for(5, 3, 1)
    tab = ring.field
    for x in range(1, tab.q):
        assert ring.reduce_to_field(ring.teichmuller(x)) == x


def test_teichmuller_multiplicative_and_idempotent():
    ring = ring_for(5, 3, 1)
    tab = ring.field
    q = tab.q
    rng = random.Random(5)
    for _ in range(20):
        x = rng.randrange(1, q)
        y = rng.randrange(1, q)
        wx, wy = ring.teichmuller(x), ring.teichmuller(y)
        assert ring.mul(wx, wy) == ring.teichmuller(tab.mul(x, y))
        assert ring.pow(wx, q) == wx
        assert ring.pow(wx, q - 1) == ring.one()
    with pytest.raises(ZeroElementError):
        ring.teichmuller(0)


def test_unit_inverse():
    ring = ring_for(2, 3, 3)
    rng = random.Random(11)
    for _ in range(10):
        elem = tuple(rng.randrange(ring.pN) for _ in range(ring.e))
        if ring.valuation(elem) != 0:
            continue
        inv = ring.unit_inverse(elem, ring.precision)
        assert ring.mul(elem, inv) == ring.one()


def test_jacobi_boundary_conventions():
    ring = ring_for(2, 3, 2)
    q = ring.field.q
    for a in (1, 2, 7):
        assert jacobi_sum(a, 0, ring) == ring.zero()
        assert jacobi_sum(a, q - 1, ring) == ring.neg(ring.one())
    # J(T^-mk, T^mk) = -1 since -1 lies in the subgroup
    k = ring.field.params.k
    for m in (1, 2):
        assert jacobi_sum(-m * k, m * k, ring) == ring.neg(ring.one())


def test_jacobi_reflection_symmetry():
    ring = ring_for(5, 3, 1)
    q = ring.field.q
    rng = random.Random(3)
    for _ in range(25):
        a = rng.randrange(1, q - 1)
        b = rng.randrange(1, q - 1)
        assert jacobi_sum(-a, -b, ring) == jacobi_sum(-b, -a, ring)


@pytest.mark.parametrize("trip", [(2, 3, 2), (5, 3, 1), (3, 5, 1), (2, 5, 2), (3, 7, 1)])
def test_jacobi_row_matches_jacobi_sum(trip):
    """The coset-class row equals the direct sums J(T^a, T^(-nk)), n = 1..ell-1."""
    ring = ring_for(*trip)
    P = ring.field.params
    for a in range(1, P.q - 1):
        row = jacobi_row(a, ring)
        assert row == [jacobi_sum(a, -(n * P.k), ring) for n in range(1, P.ell)], a


def test_jacobi_row_object_contraction():
    """q = 41^2: ell*e*pN^2 >= 2^62, so the class-sum contraction runs in object dtype."""
    tab, ring = field_for(41, 3, 1), ring_for(41, 3, 1)
    assert tab.params.ell * ring.e * ring.pN**2 >= 1 << 62
    assert ring._row_map.dtype == object
    assert block_p_multiplicities(tab, ring) == p_part_from_carries(tab.params)


def test_block_count_is_a_mismatch(monkeypatch):
    """A block that loses one divisor must fail the q-1 count, under python -O too."""
    good = galois._block_valuations

    def short(table, ring, i):
        exps, zeros = good(table, ring, i)
        return (exps[1:] if i == 1 else exps), zeros

    monkeypatch.setattr(galois, "_block_valuations", short)
    with pytest.raises(MismatchError):
        block_p_multiplicities(field_for(2, 3, 2), ring_for(2, 3, 2))


def test_jacobi_valuation_example():
    ring = ring_for(2, 3, 2)
    P = ring.field.params
    assert ring.valuation(jacobi_sum(-3, -5, ring)) == 3 == carry_count(3, 5, P)


def test_stickelberger_exhaustive_small():
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        rep = verify_stickelberger(tab, ring_for(*trip))
        q = tab.q
        assert rep.ok and rep.checked == (q - 2) * (q - 2) - (q - 2)


def test_stickelberger_sampled_mode():
    tab = field_for(3, 5, 1)
    rep = verify_stickelberger(tab, ring_for(3, 5, 1), exhaustive_limit=10, sample=300, seed=7)
    assert rep.ok and rep.checked == 300


def test_block_expected_patterns_q25():
    tab = field_for(5, 3, 1)
    ring = ring_for(5, 3, 1)
    # min-carry profile over i=1..7 is six zeros and one 1 (see carries tests)
    shapes = set()
    for i in range(1, 8):
        exps, zeros = ring_divisor_valuations(laplacian_block(tab, ring, i), ring)
        assert zeros == 0
        shapes.add(tuple(sorted(exps)))
        verify_block(tab, ring, i)
    assert shapes == {(0, 1, 2), (1, 1, 1)}
    exps, zeros = ring_divisor_valuations(laplacian_block_zero(tab, ring), ring)
    assert sorted(exps) == [0, 0, 1] and zeros == 1
    verify_block(tab, ring, 0)


def test_block_patterns_all_fixtures():
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        rep = verify_all_blocks(tab, ring_for(*trip))
        assert rep.ok and rep.checked == tab.params.k


def test_block_check_cold_rings():
    """Forty freshly built rings each pass the block check at q=256."""
    tab = field_for(2, 3, 4)
    for _ in range(40):
        rep = verify_all_blocks(tab, GaloisRing(tab))
        assert rep.ok and rep.checked == tab.params.k


def test_ring_not_mutated_by_use():
    tab = field_for(2, 3, 2)
    ring = GaloisRing(tab)
    before = dict(vars(ring))
    snapshot = pickle.dumps(before)
    jacobi_sum(-3, -5, ring)
    jacobi_row(-3, ring)
    verify_block(tab, ring, 1)
    verify_block(tab, ring, 0)
    after = vars(ring)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert pickle.dumps(after) == snapshot


def test_three_way_multiplicity_agreement():
    """Block assembly == carry enumeration == integer SNF oracle."""
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        P = tab.params
        from_blocks = block_p_multiplicities(tab, ring_for(*trip))
        from_carries = p_part_from_carries(P)
        oracle = snf_group_for(*trip).p_multiplicities(P.p)
        oracle[0] = P.q - 1 - sum(oracle.values())
        assert from_blocks == from_carries == oracle


def test_blocks_larger_index_primes():
    """ell = 5 with v_p(ell-1) = 2, and ell = 7 with v_p(ell-1) = 1."""
    for trip in [(2, 5, 2), (3, 7, 1)]:
        tab = field_for(*trip)
        ring = ring_for(*trip)
        rep = verify_all_blocks(tab, ring)
        assert rep.ok and rep.checked == tab.params.k
        assert block_p_multiplicities(tab, ring) == p_part_from_carries(tab.params)


def test_expected_pattern_shapes():
    tab = field_for(3, 5, 1)
    vals, zeros = expected_block_valuations(tab, 0)
    # two unit factors, ell-3 = 2 middle copies at half = 2, then v_p(u) = 2
    assert vals == [0, 0, 2, 2, 2] and zeros == 1
    vals, zeros = expected_block_valuations(tab, 1)
    assert len(vals) == 5 and zeros == 0


def test_blocks_ell5():
    tab = field_for(3, 5, 1)
    rep = verify_all_blocks(tab, ring_for(3, 5, 1))
    assert rep.ok and rep.checked == 16


def test_ring_elimination_known_diagonals():
    ring = ring_for(2, 3, 2)
    Z, one = ring.zero(), ring.one()
    p2, p3 = ring.scalar(4), ring.scalar(8)
    M = [[one, Z, Z], [Z, p3, Z], [Z, Z, p2]]
    exps, zeros = ring_divisor_valuations(M, ring)
    assert sorted(exps) == [0, 2, 3] and zeros == 0
    # mixed entries: det = -16, so valuations must total 4 with a unit factor
    M = [[one, p2, Z], [ring.scalar(3), p3, p2], [Z, Z, p2]]
    exps, zeros = ring_divisor_valuations(M, ring)
    assert sorted(exps) == [0, 2, 2] and zeros == 0
    M = [[p2, Z], [Z, Z]]
    exps, zeros = ring_divisor_valuations(M, ring)
    assert exps == [2] and zeros == 1

"""Acceptance suite: one test per criterion, each prints a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; everything is exact arithmetic, so every tolerance is zero.
"""

import json
import time
from fractions import Fraction

import numpy as np

from conftest import both_result_for, field_for, p_rank, params_for, ring_for, snf_group_for
from cyclocrit import (
    critical_group,
    p_part_from_recursion,
    p_rank_closed_form,
    verify_all_blocks,
    verify_srg,
    verify_stickelberger,
    verify_transfer_matrix,
    verify_walks,
)
from cyclocrit.cli import main
from cyclocrit.critgroup import order_factorization, p_part_multiplicities
from cyclocrit.graph import laplacian

FIXTURES = [(2, 3, 2), (5, 3, 1), (2, 3, 3), (2, 3, 4), (3, 5, 1)]
PUBLISHED_Q256 = [32, 8, 16, 84, 1, 16, 8, 32, 28]


def test_criterion_1_published_example_via_cli(capsys):
    """compute --p 2 --ell 3 --t 4 --method both reproduces the published table."""
    t0 = time.time()
    code = main(["compute", "--p", "2", "--ell", "3", "--t", "4", "--method", "both"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    div = {(int(p), e): m for p, e, m in doc["elementary_divisors"]}
    assert [div.get((2, j), 0) for j in range(1, 10)] == PUBLISHED_Q256
    assert "formula==bruteforce" in doc["checks"]
    assert elapsed < 300, f"brute-force path took {elapsed:.0f}s (budget 300s)"
    # the formula path alone is sub-second
    t0 = time.time()
    e = p_part_from_recursion(2, 4)
    formula_elapsed = time.time() - t0
    assert e[0] == 30
    assert formula_elapsed < 1.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 1 published example (2,3,4): PASS "
            f"(both {elapsed:.1f}s, formula {formula_elapsed * 1000:.0f}ms)"
        )


def test_criterion_2_polynomial_table(capsys):
    """Multiplicity polynomials in p for t = 4, exact at p in {5, 11, 17}.

    The printed closed form for the top exponent carries a misprint: the
    leading factor must be 2^(t+1) - 2 = 30 (t = 4), not 510; with 510
    the multiplicities cannot sum to q - 1, and the published p = 2 data
    (top multiplicity 28 = 30 - 2) agrees with 30.  Asserted both ways.
    """

    def table_forms(p: int) -> dict[int, int]:
        P = Fraction(p)
        e1 = (256 * P**8 + 1040 * P**7 + 1120 * P**6 - 784 * P**5 - 2240 * P**4
              - 784 * P**3 + 1120 * P**2 + 1040 * P + 256) / 6561
        e2 = (776 * P**8 + 592 * P**7 - 2248 * P**6 - 1904 * P**5 + 320 * P**4
              - 1904 * P**3 - 2248 * P**2 + 592 * P + 776) / 6561
        e3 = (304 * P**8 - 448 * P**7 - 128 * P**6 + 608 * P**5 - 32 * P**4
              + 608 * P**3 - 128 * P**2 - 448 * P + 304) / 2187
        e4 = (871 * P**8 - 352 * P**7 + 448 * P**6 - 544 * P**5 - 56 * P**4
              - 544 * P**3 + 448 * P**2 - 352 * P + 871) / 2187
        out = {}
        for j, val in ((1, e1), (2, e2), (3, e3), (4, e4), (5, e3), (6, e2), (7, e1)):
            assert val.denominator == 1
            out[j] = int(val)
        out[8] = 30 * ((p + 1) // 3) ** 8 - 2
        return out

    for p in (5, 11, 17):
        got = p_part_from_recursion(p, 4)
        want = table_forms(p)
        for j in range(1, 9):
            assert got.get(j, 0) == want[j], (p, j, got.get(j, 0), want[j])
        # misprint detector: the literal printed factor 510 breaks conservation
        bad_e8 = 510 * ((p + 1) // 3) ** 8 - 2
        q = p**8
        assert got[8] != bad_e8
        total_with_bad = sum(m for j, m in got.items() if j != 8) + bad_e8
        assert total_with_bad != q - 1
    with capsys.disabled():
        print("ACCEPTANCE 2 polynomial table p in {5,11,17}: PASS "
              "(top-exponent factor corrected 510 -> 30; misprint breaks conservation)")


def test_criterion_3_cross_pipeline(capsys):
    """Formula group == brute-force group, divisor by divisor, on every fixture."""
    for trip in FIXTURES:
        P = params_for(*trip)
        if trip == (2, 3, 4):
            formula = critical_group(P, "formula").group
            oracle = snf_group_for(*trip)  # cached full SNF
            assert formula == oracle, trip
        else:
            res = both_result_for(*trip)
            assert "formula==bruteforce" in res.checks
    # q = 1024 runs the p-local route inside method="both"
    res = both_result_for(2, 11, 1)
    assert "bruteforce:p-local-snf" in res.checks
    assert "formula==bruteforce" in res.checks
    # direct mod-r rank checks of the coprime multiplicities at q = 1024
    tab = field_for(2, 11, 1)
    L = laplacian(tab)
    claimed_3s = sum(m for prime, exp, m in res.group.divisors if prime == 3)
    assert claimed_3s == 930
    assert p_rank(L, 3) == tab.params.q - 1 - claimed_3s
    with capsys.disabled():
        print("ACCEPTANCE 3 cross-pipeline equivalence on "
              f"{FIXTURES + [(2, 11, 1)]}: PASS")


def test_criterion_4_order_conservation(capsys):
    """Count and valuation conservation for 24 triples, formula pipeline only."""
    triples = [
        (2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 8),
        (2, 3, 10), (2, 3, 14),
        (5, 3, 1), (5, 3, 2), (5, 3, 3), (5, 3, 4),
        (11, 3, 1), (11, 3, 2), (11, 3, 3),
        (17, 3, 2), (23, 3, 2), (29, 3, 2), (41, 3, 2),
        (3, 5, 1), (2, 5, 2), (3, 5, 2), (7, 5, 1),
        (3, 7, 1), (2, 11, 1), (2, 13, 1),
    ]
    assert len(triples) >= 20
    for trip in triples:
        P = params_for(*trip)
        assert P.q <= 10**10
        e = p_part_multiplicities(P)
        # recomputed here, independent of the library's internal check
        assert sum(e.values()) == P.q - 1, trip
        vsum = sum(j * m for j, m in e.items())
        expected = P.k * P.vp(P.u) + (P.q - P.k - 1) * P.vp(P.v) - P.ext_degree
        assert vsum == expected, trip
    with capsys.disabled():
        print(f"ACCEPTANCE 4 conservation pair on {len(triples)} triples: PASS")


def test_criterion_5_stickelberger(capsys):
    """Jacobi valuations == carry counts, exhaustive for q in {16, 25, 64}."""
    t0 = time.time()
    total = 0
    for trip in [(2, 3, 2), (5, 3, 1), (2, 3, 3)]:
        tab = field_for(*trip)
        rep = verify_stickelberger(tab, ring_for(*trip))
        q = tab.q
        assert rep.checked == (q - 2) ** 2 - (q - 2)
        total += rep.checked
    elapsed = time.time() - t0
    assert elapsed < 30, f"{elapsed:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 5 Stickelberger exhaustive ({total} pairs, {elapsed:.1f}s): PASS")


def test_criterion_6_block_smith_forms(capsys):
    """Every isotypic block matches its closed-form local Smith pattern."""
    for trip in [(2, 3, 2), (5, 3, 1)]:
        tab = field_for(*trip)
        rep = verify_all_blocks(tab, ring_for(*trip))
        assert rep.ok and rep.checked == tab.params.k
    with capsys.disabled():
        print("ACCEPTANCE 6 block local Smith forms (q=16: 5 blocks, q=25: 8 blocks): PASS")


def test_criterion_7_transfer_matrix(capsys):
    """Char poly z^6 - Pz^4 + Qz^2 - R, det -p^2 x^3 y^3, walk oracle == recursion."""
    for p in (2, 5, 11):
        verify_transfer_matrix(p)
        verify_walks(p, t_max=4)
    with capsys.disabled():
        print("ACCEPTANCE 7 transfer-matrix identities p in {2,5,11}, t <= 4: PASS")


def test_criterion_8_p_rank_closed_form(capsys):
    """Mod-p rank of the Laplacian equals ((p+1)/3)^(2t) (2^(t+1)-2)."""
    cases = [(2, 2), (2, 3), (2, 4), (5, 1), (2, 5)]  # q = 16..1024
    for p, t in cases:
        tab = field_for(p, 3, t)
        want = p_rank_closed_form(p, t)
        assert p_rank(laplacian(tab), p) == want
        assert p_part_multiplicities(tab.params)[0] == want
    with capsys.disabled():
        print(f"ACCEPTANCE 8 p-rank closed form on {cases}: PASS")


def test_criterion_9_srg_identities(capsys):
    for trip in FIXTURES + [(2, 11, 1)]:
        report = verify_srg(field_for(*trip))
        assert report.ok, (trip, report.detail)
    with capsys.disabled():
        print("ACCEPTANCE 9 strongly-regular identities on all fixtures: PASS")

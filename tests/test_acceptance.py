"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The random sample backing the determinant, surface-determinant and
classifier criteria is built once and shared.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.quotient import hj_continued_fraction
from branchlink.qres import compute_qresolution, strict_self_intersection
from branchlink.detcalc import (
    LinkKind,
    build_intersection_matrix,
    census_order_product,
    classify_brieskorn_pham,
    classify_link,
    det_S,
    det_closed_form,
    det_exact,
    r_sequence,
)
from branchlink.plumbing import (
    assemble_full_resolution,
    classify_topologically,
    graph_determinant,
    is_negative_definite,
    pullback_on_full_resolution,
)
from branchlink.splice import (
    check_semigroup_condition,
    diagrams_isomorphic,
    edge_determinants,
    expected_splice_diagram,
    splice_equations,
    splice_from_plumbing,
    verify_en_conditions,
)
from conftest import acceptance_sample, criterion_8_extras, r_direct

SAMPLE_SIZE = 500
_cache = {}


@pytest.fixture(scope="module")
def sample():
    if "sample" not in _cache:
        _cache["sample"] = acceptance_sample(SAMPLE_SIZE)
    return _cache["sample"]


def _qr_pairs(sample):
    if "pairs" not in _cache:
        pairs = []
        for beta in sample:
            cd = derive_from_generators(beta)
            pairs.append((cd, compute_qresolution(cd)))
        _cache["pairs"] = pairs
    return _cache["pairs"]


def _graphs(sample):
    if "graphs" not in _cache:
        _cache["graphs"] = [
            (cd, qr, assemble_full_resolution(qr)) for cd, qr in _qr_pairs(sample)
        ]
    return _cache["graphs"]


def test_criterion_1_worked_example_fidelity():
    start = time.perf_counter()
    cd = derive_from_generators((8, 12, 26, 53))
    qr = compute_qresolution(cd)
    assert qr.r[1] == 2
    q0 = qr.points("Q0")[0]
    assert (q0.hj.d, q0.hj.q) == (3, 1)
    assert all(pt.is_smooth for pt in qr.points("Q"))
    assert qr.points("P")[0].is_smooth
    edge = qr.points("edge")[0]
    assert (edge.hj.d, edge.hj.q) == (7, 3)
    assert strict_self_intersection(qr, 2) == -1
    pg = assemble_full_resolution(qr)
    mult = pullback_on_full_resolution(pg, qr)
    values = {pg.labels[v]: m for v, m in enumerate(mult)}
    assert values["E1.1"] == values["E1.2"] == 6
    assert values["E2.1"] == 26
    assert all(m == 2 for lbl, m in values.items() if lbl.startswith("Q0"))
    for j in (1, 2):
        assert sorted(
            m for lbl, m in values.items() if lbl.startswith(f"Q12[{j}]")
        ) == [8, 10, 12]
    elapsed_1 = time.perf_counter() - start
    assert elapsed_1 < 1.0

    start = time.perf_counter()
    cd1 = derive_from_generators((70, 105, 215, 1511))
    link1 = classify_link(cd1)
    assert link1.kind is LinkKind.ZHS
    assert det_S(cd1) == 1
    cd2 = derive_from_generators((70, 105, 225, 1579))
    link2 = classify_link(cd2)
    assert link2.kind is LinkKind.QHS
    assert next(w for w in link2.witnesses if w.k == 2).gcd_quot_e == 5
    cd3 = derive_from_generators((24, 36, 75, 311))
    assert classify_link(cd3).kind is LinkKind.NOT_QHS
    elapsed_2 = time.perf_counter() - start
    assert elapsed_2 < 1.0

    start = time.perf_counter()
    sd = splice_from_plumbing(assemble_full_resolution(compute_qresolution(cd1)))
    exp = expected_splice_diagram(cd1)
    assert diagrams_isomorphic(sd, exp)
    leaf_ws = sorted(w for (v, u), w in exp.weights.items() if u in exp.leaves)
    assert leaf_ws == sorted(cd1.n)
    internal = sorted(w for (v, u), w in exp.weights.items() if u in exp.nodes)
    assert internal == [cd1.e[1], cd1.beta[2] // cd1.e[2]] == [35, 43]
    eqs = splice_equations(sd, cd1)
    assert eqs.render() == ["z1^2 + z2^7 + z0^3 = 0", "z2^7 + z3^5 + z0^20*z1 = 0"]
    elapsed_3 = time.perf_counter() - start
    assert elapsed_3 < 1.0
    print(
        f"\n[PASS] criterion 1: worked-example fidelity "
        f"({elapsed_1:.2f}s / {elapsed_2:.2f}s / {elapsed_3:.2f}s, each < 1s)"
    )


def test_criterion_2_determinant_oracle_equivalence(sample):
    start = time.perf_counter()
    pairs = _qr_pairs(sample)
    for cd, qr in pairs:
        closed = det_closed_form(qr)  # checks the explicit quotient internally
        eliminated = det_exact(build_intersection_matrix(qr))
        assert closed == eliminated
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 2: det closed form == det elimination on "
        f"{len(pairs)} random semigroups, exact equality ({elapsed:.1f}s < 60s)"
    )


def test_criterion_3_surface_determinant_dual_route(sample):
    pairs = _qr_pairs(sample)
    for cd, qr in pairs:
        value = det_S(cd, qr)  # both routes checked equal and integral inside
        assert value >= 1
        assert value == abs(det_closed_form(qr)) * census_order_product(qr)
    print(
        f"\n[PASS] criterion 3: det(S) product formula == blow-up route on "
        f"{len(pairs)} samples, exact equality"
    )


def test_criterion_4_classifier_dual_route(sample):
    graphs = _graphs(sample)
    counts = {LinkKind.NOT_QHS: 0, LinkKind.QHS: 0, LinkKind.ZHS: 0}
    for cd, qr, pg in graphs:
        gcd_route = classify_link(cd)
        topo_route = classify_topologically(pg)
        assert gcd_route.kind == topo_route.kind
        counts[gcd_route.kind] += 1
    print(
        f"\n[PASS] criterion 4: gcd criterion == topological criterion on "
        f"{len(graphs)} samples ({counts[LinkKind.NOT_QHS]} not QHS, "
        f"{counts[LinkKind.QHS]} QHS, {counts[LinkKind.ZHS]} ZHS)"
    )


def test_criterion_5_hirzebruch_jung_identities():
    checked = 0
    for d in range(2, 501):
        for q in range(1, d):
            if math.gcd(d, q) != 1:
                continue
            chain = hj_continued_fraction(d, q)
            assert all(k >= 2 for k in chain.kappas)
            assert chain.determinant == d
            qprime = pow(q, -1, d)
            assert chain.det_without_first == q
            assert chain.det_without_last == qprime
            assert q * qprime % d == 1
            checked += 1
    smooth = hj_continued_fraction(1, 0)
    assert smooth.kappas == () and smooth.determinant == 1
    print(
        f"\n[PASS] criterion 5: chain determinant identities for all "
        f"{checked} types with d <= 500"
    )


def test_criterion_6_r_sequence_equivalence():
    rng = random.Random(97)
    runs = 0
    for _ in range(60):
        m = rng.randint(2, 8)
        a = (0,) + tuple(Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(m))
        p = (0,) + tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(m - 1))
        d = (0,) + tuple(Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(m - 1))
        R = r_sequence(a, p, d)
        for l in range(m + 1):
            assert R[l] == r_direct(a, p, d, l)
        runs += 1
    print(
        f"\n[PASS] criterion 6: R-sequence recurrence == direct signed sum on "
        f"{runs} random rational inputs up to length 8"
    )


def test_criterion_7_brieskorn_pham_table():
    table = 0
    for a1 in range(2, 13):
        for a2 in range(2, 13):
            for a3 in range(2, 13):
                bp = classify_brieskorn_pham(a1, a2, a3)
                pairwise = (
                    math.gcd(a1, a2) == math.gcd(a1, a3) == math.gcd(a2, a3) == 1
                )
                # the case conditions against the genus/determinant formulas
                assert (bp.kind is not LinkKind.NOT_QHS) == (bp.genus == 0)
                assert (bp.kind is LinkKind.ZHS) == pairwise
                if bp.kind is LinkKind.ZHS:
                    assert bp.determinant == 1
                table += 1
    agree = 0
    for trial in range(100):
        cd = derive_from_generators(random_plane_semigroup(2, 6, seed=f"acc7:{trial}"))
        bp = classify_brieskorn_pham(cd.n[0], cd.n[1], cd.n[2])
        assert classify_link(cd).kind == bp.kind
        assert det_S(cd) == bp.determinant
        agree += 1
    print(
        f"\n[PASS] criterion 7: Brieskorn-Pham table over {table} exponent "
        f"triples and {agree} two-stage family members"
    )


def test_criterion_8_structural_invariants(sample):
    graphs = _graphs(sample)
    for cd, qr, pg in graphs:
        assert build_intersection_matrix(qr).negative_definite()
        assert is_negative_definite(pg)
    zhs_checked = 0
    candidates = [cd for cd, qr, pg in graphs if classify_link(cd).is_zhs]
    for cd in candidates + criterion_8_extras():
        qr = compute_qresolution(cd)
        pg = assemble_full_resolution(qr)
        sd = splice_from_plumbing(pg)  # EN conditions verified on construction
        verify_en_conditions(sd)
        assert all(v > 0 for v in edge_determinants(sd).values())
        report = check_semigroup_condition(sd)
        assert report.satisfied
        for entry in report.entries:
            assert entry.alphas is not None
            assert sum(a * l for a, l in zip(entry.alphas, entry.lprimes)) == entry.weight
        zhs_checked += 1
    print(
        f"\n[PASS] criterion 8: negative definiteness on {len(graphs)} matrices; "
        f"EN + semigroup condition with witnesses on {zhs_checked} integral links"
    )

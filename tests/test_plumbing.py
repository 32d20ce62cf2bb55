import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.qres import compute_qresolution
from branchlink.detcalc import LinkKind, classify_link, det_S
from branchlink.quotient import BambooChain, HJType, PlanarLattice
from branchlink.plumbing import (
    NotNegativeDefinite,
    assemble_full_resolution,
    classify_topologically,
    graph_determinant,
    h1_link,
    integer_intersection_matrix,
    is_negative_definite,
    minimize,
    pullback_on_full_resolution,
    to_dot,
    to_json_dict,
)
from branchlink import _linalg
from conftest import (
    adjacency,
    assembly_oracle,
    curve_boundary_intersections,
    dense_invariant_factors,
    naive_det,
    plumbing_graph,
    random_zhs_semigroup,
)


def graph_of(beta):
    return assemble_full_resolution(compute_qresolution(derive_from_generators(beta)))


def chain_graph(kappas):
    return plumbing_graph([-k for k in kappas], [(i, i + 1) for i in range(len(kappas) - 1)])


def test_worked_example_graph_shape():
    pg = graph_of((8, 12, 26, 53))
    # two level-1 curves at -2, the last curve at -1, four order-3 chains,
    # two chains with weights (3, 2, 2)
    assert pg.n == 13
    assert pg.is_tree()
    by_label = dict(zip(pg.labels, pg.self_int))
    assert by_label["E1.1"] == -2
    assert by_label["E1.2"] == -2
    assert by_label["E2.1"] == -1
    assert sum(1 for s in pg.self_int if s == -3) == 4 + 2
    assert all(genus == 0 for genus in pg.genus)


def test_is_tree_rejects_cycles_loops_and_forests():
    def graph(n, edges):
        return plumbing_graph([-2] * n, edges)

    assert graph(3, ((0, 1), (1, 2))).is_tree()
    assert graph(1, ()).is_tree()
    assert not graph(3, ((0, 1), (1, 2), (2, 0))).is_tree()  # a cycle
    assert not graph(1, ((0, 0),)).is_tree()  # a loop
    assert not graph(2, ((0, 1), (1, 1))).is_tree()  # a loop on a tree
    assert not graph(4, ((0, 1), (2, 3))).is_tree()  # a two-component forest
    # n - 1 edges, but a cycle plus an isolated vertex
    assert not graph(4, ((0, 1), (1, 2), (2, 0))).is_tree()


def test_worked_example_determinant_and_h1():
    pg = graph_of((8, 12, 26, 53))
    full = integer_intersection_matrix(pg)
    assert graph_determinant(pg) == 117
    assert abs(naive_det(full)) == 117  # independent cofactor oracle (13x13)
    assert graph_determinant(pg) == det_S(derive_from_generators((8, 12, 26, 53)))
    h1 = h1_link(pg)
    assert h1.free_rank == 0
    assert h1.torsion_order == 117
    for a, b in zip(h1.torsion, h1.torsion[1:]):
        assert b % a == 0


def test_worked_example_pullback_multiplicities():
    cd = derive_from_generators((8, 12, 26, 53))
    qr = compute_qresolution(cd)
    pg = assemble_full_resolution(qr)
    mult = pullback_on_full_resolution(pg, qr)
    values = {pg.labels[v]: m for v, m in enumerate(mult)}
    assert values["E1.1"] == values["E1.2"] == 6
    assert values["E2.1"] == 26
    for label, m in values.items():
        if label.startswith("Q0"):
            assert m == 2
    for j in (1, 2):
        chain = sorted(m for label, m in values.items() if label.startswith(f"Q12[{j}]"))
        assert chain == [8, 10, 12]
    # the strict transform of the curve meets the last curve twice
    assert pg.arrow == ((pg.labels.index("E2.1"), 2),)


def fan_walk_arrow(qr, pg):
    """The arrow located by the planar-lattice fan: index 0 of the walk is
    E_{g-1}, indices 1..r the P chain read from its tail, and the last index
    the axis that never enters the graph."""
    cd, g = qr.cd, qr.g
    p_pt = next(pt for pt in qr.census if pt.kind == "P")
    delta = cd.n[g] * cd.beta[g] - cd.n[g - 1] * cd.beta[g - 1]
    hits = curve_boundary_intersections(
        PlanarLattice.of(p_pt.raw), exp_second=cd.n[g], exp_first=delta
    )
    walk = [pg.strict[g - 2][0]]
    walk += reversed([v for v, label in enumerate(pg.labels) if label.startswith("P.")])
    return tuple((walk[i], m) for i, m in hits if i < len(walk))


def test_closed_form_arrow_matches_the_fan_walk():
    rng = random.Random(37)
    draws = []
    for i in range(320):
        g = 2 + i % 6
        max_n = rng.choice((2, 3, 4, 5) if g <= 4 else (2, 3) if g == 5 else (2,))
        draws.append(random_plane_semigroup(g, max_n, seed=f"arrow:{i}"))
    draws += [random_zhs_semigroup(rng.choice([2, 3, 4]), rng) for _ in range(40)]
    smooth = 0
    for beta in draws:
        qr = compute_qresolution(derive_from_generators(beta))
        pg = assemble_full_resolution(qr)
        assert pg.arrow == fan_walk_arrow(qr, pg)
        smooth += pg.arrow[0][0] == pg.strict[qr.g - 2][0]
    assert 0 < smooth < len(draws)


def test_assembly_by_one_incidence_rule_matches_the_per_kind_oracle():
    rng = random.Random(41)
    draws = []
    for i in range(240):
        g = 2 + i % 6
        max_n = rng.choice((2, 3, 4, 5) if g <= 4 else (2, 3) if g == 5 else (2,))
        draws.append(random_plane_semigroup(g, max_n, seed=f"incidence:{i}"))
    draws += [random_zhs_semigroup(rng.choice([2, 3, 4]), rng) for _ in range(30)]
    seen = {"smooth Q": 0, "edge": 0, "smooth P": 0, "genus": 0, "smoothed edge": 0}
    for beta in draws:
        qr = compute_qresolution(derive_from_generators(beta))
        assert assemble_full_resolution(qr) == assembly_oracle(qr)
        seen["smooth Q"] += any(pt.is_smooth for pt in qr.points("Q"))
        seen["edge"] += bool(qr.points("edge"))
        seen["smooth P"] += qr.points("P")[0].is_smooth
        seen["genus"] += any(qr.genus)
        if qr.g >= 3 and seen["smoothed edge"] < 40:
            # no valid semigroup seems to have a smooth edge point, so make
            # one: its two curves then meet transversally, copy by copy
            smoothed = with_smooth_edge(qr)
            assert assemble_full_resolution(smoothed) == assembly_oracle(smoothed)
            seen["smoothed edge"] += 1
    assert min(seen.values()) >= 10, seen


def with_smooth_edge(qr):
    """qr with its first edge point made smooth and each a_k it meets moved
    by the correction the point no longer takes, so that the strict
    transforms keep their self-intersections."""
    edge = qr.points("edge")[0]
    a = list(qr.a)
    a[edge.level] += edge.correction_for_level(edge.level)
    a[edge.level + 1] += edge.per_component * edge.correction_for_level(edge.level + 1)
    smooth = replace(edge, hj=HJType(1, 0, 0), chain=BambooChain(()))
    census = tuple(smooth if pt is edge else pt for pt in qr.census)
    return replace(qr, a=tuple(a), census=census)


def test_strict_transform_vertices_are_marked():
    cd = derive_from_generators((70, 105, 215, 1511))
    qr = compute_qresolution(cd)
    pg = assemble_full_resolution(qr)
    strict_ids = {v for level in pg.strict for v in level}
    chain_ids = set(range(pg.n)) - strict_ids
    assert len(strict_ids) == sum(qr.r[1:])
    assert chain_ids  # coprime data still carries nontrivial chains here


def test_e8_graph_from_g2_example():
    cd = derive_from_generators((6, 10, 31))
    qr = compute_qresolution(cd)
    pg = assemble_full_resolution(qr)
    assert pg.n == 8
    assert all(s == -2 and genus == 0 for s, genus in zip(pg.self_int, pg.genus))
    degrees = sorted(len(nbrs) for nbrs in adjacency(pg).values())
    assert degrees == [1, 1, 1, 2, 2, 2, 2, 3]
    assert graph_determinant(pg) == 1
    assert classify_topologically(pg).kind is LinkKind.ZHS
    mult = pullback_on_full_resolution(pg, qr)
    values = {pg.labels[v]: m for v, m in enumerate(mult)}
    assert values["E1.1"] == 30
    assert sorted(values.values()) == [6, 10, 12, 16, 18, 20, 24, 30]


def test_single_chain_graphs():
    assert graph_determinant(chain_graph((5,))) == 5
    pg = chain_graph((3, 2, 2))
    assert graph_determinant(pg) == 7
    # deleting an end vertex leaves the two sub-chain determinants q', q
    assert graph_determinant(chain_graph((3, 2))) == 5
    assert graph_determinant(chain_graph((2, 2))) == 3
    assert 3 * 5 % 7 == 1


def test_det_multiplicativity_over_census():
    for trial in range(30):
        g = 3 + trial % 3
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"pl:{trial}"))
        qr = compute_qresolution(cd)
        pg = assemble_full_resolution(qr)
        from branchlink.detcalc import build_intersection_matrix, census_order_product, det_exact

        lhs = Fraction(graph_determinant(pg))
        rhs = abs(det_exact(build_intersection_matrix(qr))) * census_order_product(qr)
        assert lhs == rhs


def test_pullback_strict_entries_are_multiplicities():
    for trial in range(25):
        g = 3 + trial % 3
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"pb:{trial}"))
        qr = compute_qresolution(cd)
        pg = assemble_full_resolution(qr)
        mult = pullback_on_full_resolution(pg, qr)  # asserts N_k and positivity
        assert all(m > 0 for m in mult)


def test_h1_zhs_trivial():
    pg = graph_of((70, 105, 215, 1511))
    assert h1_link(pg).is_trivial


def test_h1_torsion_order_matches_det_S():
    cd = derive_from_generators((70, 105, 225, 1579))
    pg = assemble_full_resolution(compute_qresolution(cd))
    h1 = h1_link(pg)
    assert h1.free_rank == 0
    assert h1.torsion_order == det_S(cd)


def test_h1_free_rank_counts_genus():
    pg = plumbing_graph([-1], [], genus=[1])
    h1 = h1_link(pg)
    assert h1.free_rank == 2
    assert h1.torsion == ()


def test_h1_rejects_indefinite():
    pg = plumbing_graph([1], [])
    with pytest.raises(NotNegativeDefinite):
        h1_link(pg)


def sparse_rows(matrix):
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(matrix)}


SMITH_KNOWN = [
    ([[2, 0], [0, 4]], [2, 4]),
    ([[-2, 1], [1, -2]], [1, 3]),
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
]


def test_smith_normal_form_known_values():
    for matrix, factors in SMITH_KNOWN:
        det = abs(naive_det(matrix))
        assert _linalg.invariant_factors(sparse_rows(matrix), int(det)) == factors
        assert dense_invariant_factors(matrix) == factors


def test_smith_normal_form_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    rng = random.Random(11)
    cases = [m for m, _ in SMITH_KNOWN]
    while len(cases) < 30:
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = -rng.randint(1, 9)
            for j in range(i):
                m[i][j] = m[j][i] = rng.choice((0, 0, 1, 2, -3))
        if naive_det(m):
            cases.append(m)
    for m in cases:
        snf = normalforms.smith_normal_form(Matrix(m), domain=ZZ)
        expected = sorted(abs(int(snf[i, i])) for i in range(len(m)))
        det = int(abs(naive_det(m)))
        assert _linalg.invariant_factors(sparse_rows(m), det) == expected


def test_invariant_factors_match_dense_oracle_on_graphs():
    seen = 0
    for trial in range(60):
        g = 3 + trial % 3
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"snf:{trial}"))
        pg = assemble_full_resolution(compute_qresolution(cd))
        if pg.n > 250 or not is_negative_definite(pg):
            continue
        expected = [f for f in dense_invariant_factors(integer_intersection_matrix(pg)) if f > 1]
        assert list(h1_link(pg).torsion) == expected
        seen += 1
    assert seen >= 20


def test_invariant_factors_trivial_modulus():
    pg = graph_of((6, 10, 31))  # E8: unimodular
    rows = sparse_rows(integer_intersection_matrix(pg))
    assert _linalg.invariant_factors(rows, 1) == [1] * 8
    assert _linalg.invariant_factors({}, 1) == []


@pytest.mark.parametrize(
    "core, mod",
    [
        ([[4, 2, 2, 2], [2, 14, 0, 0], [2, 0, 14, 0], [2, 0, 0, 14]], 16),
        ([[70, 35, 90, 0], [35, 65, 0, 0], [90, 0, 44, 2], [0, 0, 2, 98]], 100),
    ],
)
def test_core_phase_terminates_on_census_cores(core, mod):
    # cores left by the sparse phase on census inputs; with xgcd steps in
    # place of plain subtraction, the core phase cycles forever on the first
    # under a block-wide pivot search and on the second under the
    # first-nonzero-column search used now
    factors = dense_invariant_factors(core)
    factors += [0] * (len(core) - len(factors))
    expected = [math.gcd(d, mod) for d in factors]
    assert _linalg._core_factors([row[:] for row in core], mod) == expected


def test_invariant_factors_reject_wrong_modulus():
    rows = sparse_rows([[2, 0], [0, 2]])  # |det| = 4
    assert _linalg.invariant_factors(rows, 4) == [2, 2]
    for wrong in (2, 8, 12):
        with pytest.raises(ArithmeticError):
            _linalg.invariant_factors(rows, wrong)
    with pytest.raises(ValueError):
        _linalg.invariant_factors(rows, 0)


def test_classify_topologically_matches_gcd_route():
    for trial in range(60):
        g = 3 + trial % 4
        cd = derive_from_generators(random_plane_semigroup(g, 4, seed=f"cl:{trial}"))
        pg = assemble_full_resolution(compute_qresolution(cd))
        assert classify_topologically(pg).kind == classify_link(cd).kind


def test_genus_vertex_forces_not_qhs():
    pg = graph_of((24, 36, 75, 311))
    assert any(genus > 0 for genus in pg.genus)
    assert classify_topologically(pg).kind is LinkKind.NOT_QHS


def test_minimize_contracts_superfluous_last_curve():
    pg = graph_of((8, 12, 26, 53))
    reduced, contracted = minimize(pg)
    assert contracted == ["E2.1"]
    assert reduced.n == pg.n - 1
    assert graph_determinant(reduced) == 117
    assert is_negative_definite(reduced)
    # no further contraction is available
    assert minimize(reduced)[1] == []


def test_minimize_preserves_minimal_graphs():
    pg = graph_of((70, 105, 215, 1511))
    reduced, contracted = minimize(pg)
    assert contracted == []
    assert reduced.n == pg.n


def test_dot_and_json_output():
    pg = graph_of((8, 12, 26, 53))
    dot = to_dot(pg)
    assert dot.startswith("graph plumbing {")
    assert '[label="[0, -1]"]' in dot
    assert "arrow" in dot
    payload = to_json_dict(pg)
    assert len(payload["vertices"]) == pg.n
    assert len(payload["edges"]) == len(pg.edges)
    assert payload["arrow"]

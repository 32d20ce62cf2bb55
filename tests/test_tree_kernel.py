"""The integer tree kernel against independent oracles, on seeded inputs."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from branchlink._linalg import NotATree, TreeKernel, ZeroPivot
from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from branchlink.qres import compute_qresolution
from branchlink.plumbing import (
    NotNegativeDefinite,
    assemble_full_resolution,
    graph_determinant,
    h1_link,
    is_negative_definite,
    minimize,
    pullback_on_full_resolution,
)
from conftest import (
    adjacency,
    dense,
    fraction_solve,
    graph_rows,
    naive_det,
    oracle_cut_determinant,
    plumbing_graph,
    random_forest,
    random_zhs_semigroup,
    rerooting_oracle,
    src_env,
)


def sylvester_negative_definite(m) -> bool:
    """(-1)^k times every leading principal minor is positive."""
    return all(
        (-1) ** k * naive_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1)
    )


WEIGHTS = (1, 1, 2, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(1, 7))


def random_cases(seed=5, count=400):
    """Seeded weighted forests: half with every weight 1, as in a plumbing
    graph, half with integer and Fraction weights, as in a partial
    resolution."""
    rng = random.Random(seed)
    cases = [
        ([-3], []),
        ([2], []),
        ([0], []),
        ([-1, -1, -1], [(0, 1, 1), (1, 2, 1)]),
        ([-1, -4, -1], [(0, 1, 1), (1, 2, 2)]),  # pivots -1, then -4 + 2^2 = 0
    ]
    while len(cases) < count:
        n = rng.randint(1, 7)
        components = rng.randint(1, min(n, 3))
        unit = len(cases) % 2 == 0
        edges = [
            (i, j, 1 if unit else rng.choice(WEIGHTS))
            for i, j in random_forest(rng, n, components)
        ]
        low = rng.choice((-5, -3, -2))  # the least diagonal entry sets the mix of cases
        diag = [rng.randint(low, 1) for _ in range(n)]
        cases.append((diag, edges))
    return cases


def test_determinant_and_definiteness_match_oracles():
    kinds = {"definite": 0, "indefinite": 0, "singular": 0, "zero pivot": 0}
    for diag, edges in random_cases():
        m = dense(diag, edges)
        tree = TreeKernel(diag, edges)
        det = naive_det(m)
        assert tree.det == det
        definite = sylvester_negative_definite(m)
        assert tree.negative_definite() is definite
        if definite:
            kinds["definite"] += 1
        elif det == 0:
            kinds["singular"] += 1
        elif any(d == 0 for d in tree.D):
            kinds["zero pivot"] += 1
        else:
            kinds["indefinite"] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


def test_zero_pivot_on_a_nonsingular_chain():
    # leaf-first pivots -1, 0, ...: the middle pivot is 0 but det = 1
    tree = TreeKernel([-1, -1, -1], [(0, 1, 1), (1, 2, 1)])
    assert tree.det == naive_det(dense([-1, -1, -1], [(0, 1, 1), (1, 2, 1)])) == 1
    assert not tree.negative_definite()
    with pytest.raises(ZeroPivot):
        tree.solve([1, 0, 0])


def test_one_vertex_and_empty_graphs():
    assert TreeKernel([-7], []).det == -7
    assert TreeKernel([-7], []).negative_definite()
    assert TreeKernel([-7], []).solve([14]) == [-2]
    assert TreeKernel([-7], []).solve([1]) == [Fraction(-1, 7)]
    empty = TreeKernel([], [])
    assert empty.det == 1 and empty.negative_definite() and empty.solve([]) == []


def test_branch_determinants_match_cofactor_oracle():
    for diag, edges in random_cases(seed=8, count=200):
        tree = TreeKernel(diag, edges)
        m = dense(diag, edges)
        adj = {i: [] for i in range(len(diag))}
        for i, j, _ in edges:
            adj[i].append(j)
            adj[j].append(i)
        for v in adj:
            for u in adj[v]:
                piece, stack = set(), [u]
                while stack:
                    w = stack.pop()
                    if w not in piece and w != v:
                        piece.add(w)
                        stack.extend(adj[w])
                idx = sorted(piece)
                minor = [[m[i][j] for j in idx] for i in idx]
                assert tree.branch_determinant(v, u) == naive_det(minor)
        with pytest.raises(ValueError):
            tree.branch_determinant(0, 0)


def test_solve_matches_fraction_oracle_on_random_forests():
    rng = random.Random(13)
    solved = 0
    for diag, edges in random_cases(seed=13, count=300):
        tree = TreeKernel(diag, edges)
        if any(d == 0 for d in tree.D):
            continue
        rhs = [rng.randint(-9, 9) for _ in diag]
        rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(dense(diag, edges))}
        try:
            _, expected = fraction_solve(rows, rhs)
        except ZeroDivisionError:
            continue  # the oracle's least-degree order met a zero pivot
        got = tree.solve(rhs)
        assert got == expected
        assert all(isinstance(x, int) for x, y in zip(got, expected) if y.denominator == 1)
        solved += 1
    assert solved >= 100


def test_cut_determinants_match_fraction_oracle_on_zhs_graphs():
    rng = random.Random(71)
    pairs = 0
    for _ in range(10):
        beta = random_zhs_semigroup(rng.choice([3, 4]), rng)
        pg = assemble_full_resolution(compute_qresolution(derive_from_generators(beta)))
        tree = pg.tree_kernel()
        adj = adjacency(pg)
        for v in (v for v in adj if len(adj[v]) >= 3):
            for u in adj[v]:
                assert abs(tree.branch_determinant(v, u)) == oracle_cut_determinant(pg, v, u)
                pairs += 1
    assert pairs >= 60


def test_parent_ward_walk_matches_rerooting_oracle_at_scale():
    # weighted forests beyond naive_det's reach, every fifth a long path
    # rooted at a random vertex; Fraction weights grow, so those stay smaller
    rng = random.Random(29)
    cases = []
    for i in range(40):
        unit = i % 2 == 0
        n = rng.randint(100, 300 if unit else 150)
        if i % 5 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            shape = list(zip(perm, perm[1:]))
        else:
            shape = random_forest(rng, n, rng.randint(1, 3))
        edges = [(a, b, 1 if unit else rng.choice(WEIGHTS)) for a, b in shape]
        cases.append(([rng.randint(-3, 1) for _ in range(n)], edges))
    # the family graphs of test_cut_determinants_equal_closed_form_weights
    rng = random.Random(61)
    for _ in range(12):
        g = rng.choice([3, 4])
        pg = assemble_full_resolution(
            compute_qresolution(derive_from_generators(random_zhs_semigroup(g, rng)))
        )
        cases.append((pg.self_int, [(i, j, 1) for i, j in pg.edges]))
    zero_pivots = 0
    for diag, edges in cases:
        tree = TreeKernel(diag, edges)
        above = rerooting_oracle(tree)
        for v, u in enumerate(tree.parent):
            if u >= 0:
                assert tree.branch_determinant(v, u) == above[v]
        zero_pivots += 0 in tree.D
    assert zero_pivots >= 10


def test_child_ranges_slice_the_bfs_order():
    rng = random.Random(37)
    seen = {"several roots": 0, "childless root": 0}
    for _ in range(200):
        n = rng.randint(1, 30)
        shape = random_forest(rng, n, rng.randint(1, min(n, 6)))
        tree = TreeKernel([-2] * n, [(i, j, 1) for i, j in shape])
        children = [[] for _ in range(n)]
        for c, u in enumerate(tree.parent):
            if u >= 0:
                children[u].append(c)
        first, stop = tree.child_ranges()
        for v in range(n):
            assert sorted(tree.order[first[v]:stop[v]]) == children[v]
        seen["several roots"] += len(tree.roots) > 1
        seen["childless root"] += any(not children[r] for r in tree.roots)
    assert min(seen.values()) >= 50, seen


def test_pullback_matches_fraction_oracle_on_seeded_graphs():
    for trial in range(12):
        cd = derive_from_generators(random_plane_semigroup(3 + trial % 3, 4, seed=f"tk:{trial}"))
        qr = compute_qresolution(cd)
        pg = assemble_full_resolution(qr)
        rhs = [0] * pg.n
        for vid, mult in pg.arrow:
            rhs[vid] -= mult
        _, expected = fraction_solve(graph_rows(pg), rhs)
        assert pullback_on_full_resolution(pg, qr) == expected
        pivots, _ = fraction_solve(graph_rows(pg))
        assert graph_determinant(pg) == abs(math.prod(pivots, start=Fraction(1)))
        assert is_negative_definite(pg) is all(p < 0 for p in pivots)


def cycle_graph():
    return plumbing_graph([-3] * 3, [(0, 1), (1, 2), (2, 0)])


def test_graph_with_a_cycle_raises_not_a_tree():
    pg = cycle_graph()
    for layer in (graph_determinant, is_negative_definite, h1_link):
        with pytest.raises(NotATree):
            layer(pg)
    with pytest.raises(NotATree):
        TreeKernel([-2, -2], [(0, 1, 1), (0, 1, 1)])  # a repeated edge is a cycle
    with pytest.raises(NotATree):
        TreeKernel([-2], [(0, 0, 1)])  # so is a loop


@pytest.mark.parametrize(
    "self_int, edges",
    [
        ([-1, -3, -3], [(0, 1), (0, 2), (1, 2)]),  # blowing down v0 leaves a double edge
        ([-1, -2], [(0, 1), (1, 1)]),  # a loop
    ],
)
def test_minimize_refuses_graphs_that_are_not_forests(self_int, edges):
    with pytest.raises(NotATree):
        minimize(plumbing_graph(self_int, edges))


def test_h1_rejects_zero_pivot_graph():
    pg = plumbing_graph([-1] * 3, [(0, 1), (1, 2)])
    assert graph_determinant(pg) == 1
    with pytest.raises(NotNegativeDefinite):
        h1_link(pg)


def rescan_minimize(pg):
    """The contraction pass by full rescans: least eligible vid first."""
    vertices = dict(enumerate(pg.self_int))
    genus = dict(enumerate(pg.genus))
    edges = {tuple(sorted(e)) for e in pg.edges}
    order = []
    while True:
        for vid in sorted(vertices):
            nbrs = [j for e in edges if vid in e for j in e if j != vid]
            if genus[vid] == 0 and vertices[vid] == -1 and len(nbrs) <= 2:
                break
        else:
            return order, vertices, edges
        order.append(vid)
        del vertices[vid]
        edges = {e for e in edges if vid not in e}
        for u in nbrs:
            vertices[u] += 1
        if len(nbrs) == 2:
            edges.add(tuple(sorted(nbrs)))


def test_minimize_keeps_the_rescan_contraction_order():
    rng = random.Random(17)
    cascades = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = random_forest(rng, n, rng.randint(1, 2))
        diag = [rng.choice((-1, -1, -2, -2, -3)) for _ in range(n)]
        pg = plumbing_graph(diag, edges)
        order, left, left_edges = rescan_minimize(pg)
        reduced, contracted = minimize(pg)
        assert contracted == [f"v{vid}" for vid in order]
        keep = sorted(left)
        assert list(reduced.self_int) == [left[vid] for vid in keep]
        assert list(reduced.labels) == [f"v{vid}" for vid in keep]
        relabel = {old: new for new, old in enumerate(keep)}
        assert reduced.edges == tuple(sorted((relabel[i], relabel[j]) for i, j in left_edges))
        cascades += len(order) > 1
    assert cascades >= 30


def test_checks_survive_python_O():
    script = """
import sys
from dataclasses import replace
from branchlink import cli
from branchlink.semigroup import derive_from_generators
from branchlink.qres import compute_qresolution
from branchlink.plumbing import assemble_full_resolution, pullback_on_full_resolution
from branchlink.detcalc import LinkClass, LinkKind

assert False, "asserts must be stripped"
qr = compute_qresolution(derive_from_generators((8, 12, 26, 53)))
pg = assemble_full_resolution(qr)
try:
    pullback_on_full_resolution(pg, replace(qr, N=tuple(x + 1 for x in qr.N)))
    print("pullback: no error")
except ArithmeticError as exc:
    print("pullback:", exc)
from branchlink import detcalc
cd = derive_from_generators((8, 12, 26, 53))
real_orders = detcalc.census_order_product
detcalc.census_order_product = lambda qr: 1  # breaks the blow-up route of det(S)
try:
    print("det_S:", detcalc.det_S(cd))
except ArithmeticError as exc:
    print("det_S:", exc)
detcalc.census_order_product = real_orders
real_bp = detcalc.classify_brieskorn_pham
detcalc.classify_brieskorn_pham = lambda *exps: replace(real_bp(*exps), determinant=2)
try:  # g = 2: S(5, 3, 2) has determinant 1
    print("det_S g=2:", detcalc.det_S(derive_from_generators((6, 10, 31))))
except ArithmeticError as exc:
    print("det_S g=2:", exc)
detcalc.classify_brieskorn_pham = real_bp
from branchlink import quotient, semigroup
real_runs = quotient._hj_runs
quotient._hj_runs = lambda d, q: ((3, 1), (1, 2))  # a kappa below 2
try:
    print("chain:", quotient.hj_continued_fraction(7, 3))
except ArithmeticError as exc:
    print("chain:", exc)
quotient._hj_runs = real_runs
real_row = semigroup._b_row
semigroup._b_row = lambda beta, n, i: (  # a wrong b_10
    (real_row(beta, n, i)[0] + 1,) if i == 1 else real_row(beta, n, i)
)
try:
    print("semigroup:", semigroup.derive_from_generators((8, 12, 26, 53)))
except ArithmeticError as exc:
    print("semigroup:", exc)
semigroup._b_row = real_row
from branchlink import qres, splice
real_genus = qres._genus_formula
qres._genus_formula = lambda cd, k: real_genus(cd, k) + 1  # a wrong genus
try:
    print("qres:", qres.compute_qresolution(derive_from_generators((8, 12, 26, 53))))
except ArithmeticError as exc:
    print("qres:", exc)
qres._genus_formula = real_genus
real_table = splice._apery_table
splice._apery_table = lambda values: [0] * min(values)  # every residue from 0 on
try:
    print("witness:", splice._lex_min_combination(7, (5, 11)))
except ArithmeticError as exc:
    print("witness:", exc)
splice._apery_table = real_table
cli.pl.classify_topologically = lambda graph: LinkClass(LinkKind.ZHS, (), ())
print("exit", cli.main(["analyze", "8,12,26,53"]))
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pullback: level 1 multiplicity is not N_k" in proc.stdout
    assert "det_S: det(S) routes disagree" in proc.stdout
    assert "det_S g=2: Brieskorn-Pham and product determinants disagree" in proc.stdout
    assert "chain: malformed chain runs ((3, 1), (1, 2)) for 7/3" in proc.stdout
    assert "semigroup: b_10 inconsistent with n_1*beta_1/beta_0" in proc.stdout
    assert "qres: Euler characteristic mismatch at level 1" in proc.stdout
    assert "witness: residue tables call 7 a sum of (5, 11) but give no witness" in proc.stdout
    assert "exit 1" in proc.stdout
    assert proc.stderr == "internal error: classifier routes disagree\n"

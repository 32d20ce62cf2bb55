"""Micro-benchmarks of the plumbing layers that read the integer tree kernel.

Assembly and the kernel's passes run on two plumbing graphs from fixed g=6
generator lists, V=9928 and V=94123.  Neither is an integral homology
sphere link, so the splice walk runs on two that are, from fixed g=5 lists:
the largest zhs_splice benchmark input by weight (V=3884) and the largest
criterion-8 input by weight (V=122232).  Run from the root of a checkout
(the Tier-1 test command collects ``tests/`` only, so it never runs these)::

    PYTHONPATH=src python -m pytest bench --benchmark-only

Each benchmark checks its result, so a fast wrong layer fails.
"""

from dataclasses import replace

import pytest

from branchlink.semigroup import derive_from_generators
from branchlink.qres import compute_qresolution
from branchlink.detcalc import det_S
from branchlink.plumbing import assemble_full_resolution, pullback_on_full_resolution
from branchlink.splice import expected_splice_diagram, splice_from_plumbing

GENERATORS = {
    "V9928": (324, 864, 2646, 5319, 10728, 32208, 96634),
    "V94123": (1296, 2160, 8352, 25524, 102195, 408795, 1226392),
}
ZHS_GENERATORS = {
    "V3884": (34034, 72930, 522665, 1045993, 11505936, 195600919),
    "V122232": (85085, 150535, 1961120, 21573153, 107865779, 1833718246),
}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def graph(request):
    cd = derive_from_generators(GENERATORS[request.param])
    qr = compute_qresolution(cd)
    return cd, qr, assemble_full_resolution(qr)


@pytest.fixture(scope="module", params=sorted(ZHS_GENERATORS))
def zhs_graph(request):
    cd = derive_from_generators(ZHS_GENERATORS[request.param])
    return cd, assemble_full_resolution(compute_qresolution(cd))


def run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=5, iterations=1, warmup_rounds=1)


def fresh(pg):
    """A copy of pg without its kept tree kernel, so each round builds one."""
    return replace(pg)


def test_assemble_full_resolution(benchmark, graph):
    _, qr, pg = graph
    assembled = run(benchmark, assemble_full_resolution, qr)
    assert assembled == pg


def test_leaf_to_root_pass(benchmark, graph):
    cd, _, pg = graph
    tree = run(benchmark, lambda: fresh(pg).tree_kernel())
    assert abs(tree.det) == det_S(cd)
    assert tree.negative_definite()


def test_rerooting_pass(benchmark, graph):
    _, _, pg = graph
    nbrs = [[] for _ in range(pg.n)]
    for i, j in pg.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    pairs = [(v, u) for v, us in enumerate(nbrs) if len(us) >= 3 for u in us]

    def cut_determinants():
        tree = fresh(pg).tree_kernel()
        return [tree.branch_determinant(v, u) for v, u in pairs]

    weights = run(benchmark, cut_determinants)
    assert len(weights) == len(pairs) and all(weights)


def test_splice_parent_ward_cuts(benchmark, zhs_graph):
    """The cut determinants splice_from_plumbing asks toward the parent, one
    per node below the root, on a fresh kernel each round (not timed)."""
    cd, pg = zhs_graph
    degree = [0] * pg.n
    for i, j in pg.edges:
        degree[i] += 1
        degree[j] += 1
    parent = pg.tree_kernel().parent
    pairs = [(v, u) for v, u in enumerate(parent) if u >= 0 and degree[v] >= 3]

    def cut_determinants(tree):
        return [abs(tree.branch_determinant(v, u)) for v, u in pairs]

    weights = benchmark.pedantic(
        cut_determinants,
        setup=lambda: ((fresh(pg).tree_kernel(),), {}),
        rounds=5,
        warmup_rounds=1,
    )
    assert pairs and set(weights) <= set(expected_splice_diagram(cd).weights.values())


def test_pullback_solve(benchmark, graph):
    _, qr, pg = graph
    mult = run(benchmark, lambda: pullback_on_full_resolution(fresh(pg), qr))
    assert len(mult) == pg.n


def test_splice_from_plumbing(benchmark, zhs_graph):
    cd, pg = zhs_graph
    sd = run(benchmark, lambda: splice_from_plumbing(fresh(pg)))
    expected = expected_splice_diagram(cd)
    assert sorted(sd.weights.values()) == sorted(expected.weights.values())

"""Micro-benchmarks of the integer tree kernel on two plumbing graphs.

The graphs come from fixed g=6 generator lists, V=9928 and V=94123.  Run
from the root of a checkout (the Tier-1 test command collects ``tests/``
only, so it never runs these)::

    PYTHONPATH=src python -m pytest bench --benchmark-only

Each benchmark checks its result, so a fast wrong kernel fails.
"""

from dataclasses import replace

import pytest

from branchlink.semigroup import derive_from_generators
from branchlink.qres import compute_qresolution
from branchlink.detcalc import det_S
from branchlink.plumbing import assemble_full_resolution, pullback_on_full_resolution

GENERATORS = {
    "V9928": (324, 864, 2646, 5319, 10728, 32208, 96634),
    "V94123": (1296, 2160, 8352, 25524, 102195, 408795, 1226392),
}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def graph(request):
    cd = derive_from_generators(GENERATORS[request.param])
    qr = compute_qresolution(cd)
    return cd, qr, assemble_full_resolution(qr)


def run(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=5, iterations=1, warmup_rounds=1)


def fresh(pg):
    """A copy of pg without its kept tree kernel, so each round builds one."""
    return replace(pg)


def test_leaf_to_root_pass(benchmark, graph):
    cd, _, pg = graph
    tree = run(benchmark, lambda: fresh(pg).tree_kernel())
    assert abs(tree.det) == det_S(cd)
    assert tree.negative_definite()


def test_rerooting_pass(benchmark, graph):
    _, _, pg = graph
    adj = pg.adjacency()
    pairs = [(v, u) for v in adj if len(adj[v]) >= 3 for u in adj[v]]

    def cut_determinants():
        tree = fresh(pg).tree_kernel()
        return [tree.branch_determinant(v, u) for v, u in pairs]

    weights = run(benchmark, cut_determinants)
    assert len(weights) == len(pairs) and all(weights)


def test_pullback_solve(benchmark, graph):
    _, qr, pg = graph
    mult = run(benchmark, lambda: pullback_on_full_resolution(fresh(pg), qr))
    assert len(mult) == pg.n

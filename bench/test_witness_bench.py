"""Micro-benchmarks of the semigroup-condition witness search.

Each query is the largest one (by weight) of the closed-form splice diagram
of a fixed g=5 generator list: the largest of the acceptance suite's
criterion 8 (weight 15,409,397) and the largest of the ``zhs_splice``
benchmark pool (weight 885,072).  Run from the root of a checkout::

    PYTHONPATH=src python -m pytest bench --benchmark-only

Each benchmark checks its witness, so a fast wrong search fails.
"""

import pytest

from branchlink.semigroup import derive_from_generators
from branchlink.splice import _lex_min_combination, expected_splice_diagram

GENERATORS = {
    "criterion_8": (85085, 150535, 1961120, 21573153, 107865779, 1833718246),
    "zhs_splice": (34034, 72930, 522665, 1045993, 11505936, 195600919),
}
WEIGHTS = {"criterion_8": 15409397, "zhs_splice": 885072}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def query(request):
    sd = expected_splice_diagram(derive_from_generators(GENERATORS[request.param]))
    (v, u) = max(sd.weights, key=sd.weights.get)
    _, lprimes = zip(*sd.beyond(v, u))
    assert sd.weights[(v, u)] == WEIGHTS[request.param]
    return sd.weights[(v, u)], lprimes


def test_residue_table_witness(benchmark, query):
    target, lprimes = query
    alphas = benchmark.pedantic(
        _lex_min_combination, args=(target, lprimes), rounds=20, iterations=1, warmup_rounds=1
    )
    assert sum(a * l for a, l in zip(alphas, lprimes)) == target

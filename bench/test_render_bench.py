"""Micro-benchmark of the ``--json`` writer, ``cli._render``.

It renders the ``analyze`` report of the g=5 generator list that the README
times (V=1266, |det S| of 46 digits).  Run from the root of a checkout::

    PYTHONPATH=src python -m pytest bench --benchmark-only

The benchmark checks its text against the old ``json.dumps`` route, so a
fast wrong writer fails.
"""

import sys
from pathlib import Path

from branchlink.cli import _render, build_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import json_oracle  # noqa: E402

GENERATORS = (432, 1188, 4824, 14556, 43708, 131127)


def test_render_g5_report(benchmark):
    report = build_report(GENERATORS)
    assert len(report["plumbing"]["vertices"]) == 1266
    text = benchmark.pedantic(_render, args=(report,), rounds=20, iterations=1, warmup_rounds=1)
    assert text == json_oracle(report)

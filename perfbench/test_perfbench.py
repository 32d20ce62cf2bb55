"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_spec_names_what_the_runner_prints(spec):
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(corpus.load()) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(spec, workload):
    out = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for m in spec["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_smoke_traced_run_prints_every_per_layer_metric(spec):
    out = _result(_bench("--workload", "census", "--seed", "5", "--seconds", "0.2", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["metrics"]["plumbing.h1_link.self_s"]["value"] > 0
    assert out["metrics"]["trace.attributed_share"]["value"] > 0.9


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def census():
    pool = corpus.load()["census"]
    m, items = run.setup(pool)
    assert all(gens == tuple(entry["generators"]) for entry, gens in items)
    return pool, m, run.schedule(items, "census", 11)


def test_corrupted_digest_fails_the_input(census):
    pool, m, order = census
    entry, gens = order[0]
    bad = dict(entry, digest="0" * 64)
    records = run.run_untraced([(bad, gens)], "census", m, 0.01)
    assert records[0]["status"] == "digest"


def test_recipe_drift_fails_the_input(census):
    pool, m, order = census
    entry, gens = order[0]
    moved = dict(entry, generators=[x + 1 for x in gens])
    records = run.run_untraced([(moved, gens)], "census", m, 0.01)
    assert records[0]["status"] == "recipe_drift"


def test_failing_cross_route_check_fails_the_input(census, monkeypatch):
    pool, m, order = census
    real = m.cli.build_report

    def wrong_det_s(gens, **kw):
        report = real(gens, **kw)
        report["determinants"]["detS"] += 1
        return report

    monkeypatch.setattr(m.cli, "build_report", wrong_det_s)
    records = run.run_untraced(order[:3], "census", m, 0.01)
    assert "h1_torsion_order_is_detS" in records[0]["status"]
    assert run.untraced_metrics(records, [1.0])["inputs_per_s"] == 0


def test_report_checks_see_each_route():
    m = workloads.import_package(ROOT / "src")
    code, text = workloads.census_execute((70, 105, 215, 1511), m)
    report = json.loads(text)
    assert workloads.census_report_failures(report) == []
    report["determinants"]["detA_closed_form"] = "1"
    report["link"]["class"] = "QHS"
    report["plumbing"]["multiplicities"][0] = "0"
    report["splice"]["semigroup_condition"][0]["weight"] = "999"
    assert workloads.census_report_failures(report) == [
        "detA_is_closed_form",
        "gcd_class_is_topological_class",
        "strict_multiplicity_is_N_k",
        "witness_sums_to_weight",
    ]


def test_timeout_records_did_not_finish(census, monkeypatch):
    pool, m, order = census
    monkeypatch.setattr(run, "TIMEOUT_S", 1e-4)
    big = [item for item in order if item[0]["stratum"] == len(pool["strata"]) - 1]
    records = run.run_untraced(big[:1], "census", m, 0.001)
    assert records[0]["status"] == "did_not_finish"


def test_trace_accounts_for_wall_and_counters_repeat(census):
    pool, m, order = census
    size = len(pool["strata"])
    runs = []
    for _ in range(2):
        records, tracer = run.run_traced(order, "census", m, 0.0, size)
        assert len(records) == size and all(r["status"] is None for r in records)
        metrics, table, absent = run.traced_metrics(records, tracer)
        assert absent == []
        self_total = sum(row["self_s"] for row in table.values())
        assert self_total == pytest.approx(table["bench.input"]["total_s"], rel=1e-9)
        runs.append(tracer.counters)
    assert runs[0] == runs[1]
    assert runs[0]["plumbing.vertices"] == runs[0]["plumbing.h1_link.matrix_dim"] > 0
    # the traced run leaves the package unwrapped
    assert not hasattr(m.plumbing.h1_link, "__wrapped__")


def test_removed_function_is_reported_absent(census, monkeypatch):
    pool, m, order = census
    monkeypatch.delattr(m.plumbing, "minimize")
    records, tracer = run.run_traced(order, "census", m, 0.0, 1)
    metrics, _, absent = run.traced_metrics(records, tracer)
    assert absent == ["plumbing.minimize"]
    assert metrics["plumbing.minimize.self_s"] == 0


def test_tracer_wraps_names_imported_elsewhere():
    m = workloads.import_package(ROOT / "src")
    tracer = spans.Tracer({name: getattr(m, name) for name in workloads.MODULES})
    tracer.install()
    try:
        assert m.cli.derive_from_generators is m.semigroup.derive_from_generators
        assert hasattr(m.cli.derive_from_generators, "__wrapped__")
        assert hasattr(m.splice.classify_topologically, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(m.cli.derive_from_generators, "__wrapped__")

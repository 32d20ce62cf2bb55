"""Closed-loop benchmark of branchlink: one client, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

The client sends the next input only after the previous result is back,
because callers of this library wait for each result.  A run

1. sets up: a fresh import of ``branchlink`` from the checkout's ``src/``
   plus generation of the workload's input pool from its recipes.  It does
   so ``SETUP_REPS`` times back to back, before the timed section, and
   reports the median as ``setup_s``;
2. orders the pool by the seed: each round takes one input from every
   stratum (quantile band of size) in a seeded order;
3. feeds whole rounds until the measured time of the calls reaches
   ``--seconds``.  Each call runs under a ``TIMEOUT_S`` alarm and every
   result is checked: the workload's cross-route checks plus the digest
   recorded in ``corpus.json``.  An input fails if it raises, does not
   finish, fails a check or if its recipe no longer gives the stored
   generators;
4. prints a summary and, as the last line, one JSON object with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``), and writes the details to ``perfbench/out/``.

With ``--trace 1`` every input runs twice, untraced and traced in
alternating order, so the tracing overhead is measured per input.
Per-layer self times and call counts are per traced input; the exact size
counters cover the first round only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import corpus
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 3
TIMEOUT_S = 20.0
# the traced run finishes its first round (for the exact counters) unless
# this much wall time has gone by
TRACE_FIRST_ROUND_CAP_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# Layer metrics kept in the traced run's result line; every wrapped function
# is in the details file.  `.self_s` is self seconds per traced input and
# `.calls` calls per traced input.
PER_LAYER_TIMED = [
    "semigroup.derive_from_generators.self_s",
    "qres.compute_qresolution.self_s",
    "qres.strict_self_intersection.calls",
    "detcalc.build_intersection_matrix.self_s",
    "detcalc.det_exact.self_s",
    "detcalc.det_closed_form.calls",
    "detcalc.det_closed_form.self_s",
    "detcalc.r_sequence.self_s",
    "detcalc.det_S.self_s",
    "detcalc.classify_link.self_s",
    "plumbing.assemble_full_resolution.self_s",
    "plumbing.sparse_intersection.self_s",
    "plumbing.classify_topologically.self_s",
    "plumbing.graph_determinant.calls",
    "plumbing.graph_determinant.self_s",
    "plumbing.is_negative_definite.self_s",
    "plumbing.h1_link.self_s",
    "plumbing.integer_intersection_matrix.self_s",
    "plumbing.pullback_on_full_resolution.self_s",
    "plumbing.minimize.self_s",
    "plumbing.to_json_dict.self_s",
    "splice.splice_from_plumbing.self_s",
    "splice.expected_splice_diagram.self_s",
    "splice.diagrams_isomorphic.self_s",
    "splice.splice_equations.self_s",
    "splice.check_semigroup_condition.self_s",
    "cli.build_report.self_s",
    "cli.cmd_analyze.self_s",
]
PER_LAYER_TRACE = {
    "trace.inputs": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.attributed_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {n: ("s" if n.endswith("_s") else "count") for n in PER_LAYER_TIMED}
    units.update({n: "count" for n in spans.COUNTER_NAMES})
    units.update(PER_LAYER_TRACE)
    return units


class DidNotFinish(BaseException):
    """Raised by the alarm when one input exceeds TIMEOUT_S.

    A BaseException, so no ``except Exception`` inside the package can
    swallow it.
    """


def _alarm(signum, frame):
    raise DidNotFinish


@contextmanager
def deadline(seconds: float):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def setup(pool: dict):
    """Import the package afresh and generate the pool from its recipes."""
    m = workloads.import_package(ROOT / "src")
    return m, [(entry, corpus.generators(entry["recipe"], m)) for entry in pool["inputs"]]


def schedule(items, workload: str, seed: int) -> list:
    """Seeded rounds: one input from every stratum per round."""
    rng = random.Random(f"{workload}:{seed}")
    strata: dict[int, list] = {}
    for item in items:
        strata.setdefault(item[0]["stratum"], []).append(item)
    for members in strata.values():
        rng.shuffle(members)
    order = []
    for r in range(max(len(v) for v in strata.values())):
        rnd = [members[r % len(members)] for _, members in sorted(strata.items())]
        rng.shuffle(rnd)
        order += rnd
    return order


def _timed(execute, gens, m, around=nullcontext):
    # start every call from a collected heap, so that one input's garbage
    # is not collected on the next input's clock
    gc.collect()
    t0 = time.perf_counter()
    try:
        with deadline(TIMEOUT_S), around():
            result = execute(gens, m)
        status = None
    except DidNotFinish:
        result, status = None, "did_not_finish"
    except Exception as exc:  # any error in the package is a failed input
        result, status = None, f"raised {type(exc).__name__}: {exc}"[:300]
    return result, status, time.perf_counter() - t0


def _verify(entry, gens, result, m, canonical, checks) -> list[str]:
    try:
        failed = list(checks(gens, result, m))
        if gens != tuple(entry["generators"]):
            failed.append("recipe_drift")
        if workloads.digest(canonical(result)) != entry["digest"]:
            failed.append("digest")
    except Exception as exc:  # a malformed result fails its input
        failed = [f"check raised {type(exc).__name__}: {exc}"[:300]]
    return failed


def _record(entry, latency, status):
    rec = {k: entry.get(k) for k in ("id", "stratum", "g", "dimA", "V", "class", "max_weight")}
    rec.update(latency_s=latency, status=status)
    return rec


def _attempt(item, workload, m):
    entry, gens = item
    execute, canonical, checks = workloads.WORKLOADS[workload]
    result, status, latency = _timed(execute, gens, m)
    if status is None:
        status = ",".join(_verify(entry, gens, result, m, canonical, checks)) or None
    return status, latency


def run_untraced(order, workload, m, seconds, round_size=1):
    """Whole rounds in seeded order until the measured call time reaches ``seconds``."""
    records, measured = [], 0.0
    while measured < seconds or len(records) % round_size:
        item = order[len(records) % len(order)]
        status, latency = _attempt(item, workload, m)
        records.append(_record(item[0], latency, status))
        measured += latency
    return records


def run_traced(order, workload, m, seconds, round_size):
    execute, canonical, checks = workloads.WORKLOADS[workload]
    tracer = spans.Tracer({name: getattr(m, name) for name in workloads.MODULES})
    tracer.install()
    records, measured, i = [], 0.0, 0
    start = time.perf_counter()
    try:
        while measured < seconds or (
            i < round_size and time.perf_counter() - start < TRACE_FIRST_ROUND_CAP_S
        ):
            entry, gens = order[i % len(order)]
            tracer.counting = i < round_size
            # alternate which pass goes first, so warm-up favours neither
            if i % 2 == 0:
                plain, status, untraced = _timed(execute, gens, m)
            result, traced_status, traced = _timed(
                execute, gens, m, lambda: tracer.span("bench.input", entry["id"])
            )
            if i % 2 == 1:
                plain, status, untraced = _timed(execute, gens, m)
            i += 1
            status = status or traced_status
            if status is None:
                failed = _verify(entry, gens, result, m, canonical, checks)
                if workloads.digest(canonical(plain)) != entry["digest"]:
                    failed.append("untraced_digest")
                status = ",".join(failed) or None
            measured += untraced + traced
            rec = _record(entry, traced, status)
            rec["untraced_s"] = untraced
            records.append(rec)
    finally:
        tracer.uninstall()
    return records, tracer


def percentile_with_tail(values, q: float, tail: int = 10):
    """Nearest-rank percentile, or None unless `tail` samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < tail:
        return None
    return ordered[rank - 1]


def untraced_metrics(records, setup_times) -> dict:
    latencies = [r["latency_s"] for r in records]
    ok = sum(r["status"] is None for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "inputs_per_s": ok / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(records, tracer):
    table = tracer.table()
    n = len(records)
    wrapped = set(tracer.wrapped)
    absent = []
    metrics = {}
    for metric in PER_LAYER_TIMED:
        fn, field = metric.rsplit(".", 1)
        if fn not in wrapped:
            absent.append(fn)
        row = table.get(fn, {"calls": 0, "self_s": 0.0})
        metrics[metric] = row[field] / n
    metrics.update(tracer.counters)
    root = table["bench.input"]
    traced = sum(r["latency_s"] for r in records)
    untraced = sum(r["untraced_s"] for r in records)
    metrics["trace.inputs"] = n
    metrics["trace.overhead_s"] = (traced - untraced) / n
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    metrics["trace.attributed_share"] = 1 - root["self_s"] / root["total_s"]
    return metrics, table, sorted(set(absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pool = corpus.load()[args.workload]
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            m, items = setup(pool)
            setup_times.append(time.perf_counter() - t0)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2
    order = schedule(items, args.workload, args.seed)
    round_size = len(pool["strata"])

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": pool["why"],
        "setup_times_s": setup_times,
    }
    if args.trace:
        records, tracer = run_traced(order, args.workload, m, args.seconds, round_size)
        values, table, absent = traced_metrics(records, tracer)
        units = per_layer_units()
        details.update(
            functions=table,
            absent=absent,
            counter_errors=sorted(tracer.counter_errors),
            spans=tracer.spans,
        )
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
    else:
        records = run_untraced(order, args.workload, m, args.seconds, round_size)
        values = untraced_metrics(records, setup_times)
        units = END_TO_END
        p90 = percentile_with_tail([r["latency_s"] for r in records], 0.9)
        details["latency_p90_s"] = p90
        print(
            f"latency over {len(records)} inputs: p50 {values['latency_p50_s']:.6f} s, "
            + (f"p90 {p90:.6f} s" if p90 is not None else "p90 not reported (<10 samples beyond it)")
        )
    failed = [r for r in records if r["status"] is not None]
    for r in failed[:10]:
        print(f"FAILED {r['id']}: {r['status']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    details.update(records=records, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

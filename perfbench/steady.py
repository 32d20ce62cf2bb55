"""Run every workload on several seeds and record one trajectory point.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --label seed --seeds 10 --sets 2 [--workload census ...]

Runs ``run.py --trace 0`` once per set, seed (1..N) and workload.  The
workloads are interleaved within each seed, so that a slow phase of the
machine is shared out among them instead of falling on one workload's
consecutive seeds.  Writes ``perfbench/trajectory/BENCH_<label>.json`` with
every value and, per set, workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), next to the
metric's bound from BENCHMARK.json.  With two or more sets it also records
how much worse each later set's median is than the first one's, as a share
of the first.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def one_run(name: str, seed: int, seconds: int) -> dict:
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - t0
    print(name, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    out = {
        "label": args.label,
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "sets": [],
    }
    for s in range(args.sets):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                runs[name].append(one_run(name, seed, spec["run_seconds"]))
        summary = {}
        for name in names:
            metrics = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
                metrics[metric["name"]] = {"bound": metric["bound"], **summarize(values),
                                           "values": values}
                print(f"set {s + 1} {name} {metric['name']}: median "
                      f"{metrics[metric['name']]['median']:.6g} spread "
                      f"{metrics[metric['name']]['spread']:.4f} (bound {metric['bound']})",
                      flush=True)
            summary[name] = {
                "attempted": [r["attempted"] for r in runs[name]],
                "failed": [r["failed"] for r in runs[name]],
                "wall_s": [r["wall_s"] for r in runs[name]],
                "metrics": metrics,
            }
        out["sets"].append(summary)
    if args.sets > 1:
        # how much worse a later set's median is than the first set's
        worse = {}
        first = out["sets"][0]
        for name in names:
            worse[name] = {}
            for metric in spec["end_to_end"]:
                m0 = first[name]["metrics"][metric["name"]]["median"]
                sign = 1 if metric["better"] == "lower" else -1
                worse[name][metric["name"]] = [
                    sign * (later[name]["metrics"][metric["name"]]["median"] - m0) / m0
                    for later in out["sets"][1:]
                ]
        out["median_worse_than_first_set"] = worse
        print(json.dumps(worse, indent=1))
    (HERE / "trajectory").mkdir(exist_ok=True)
    with open(HERE / "trajectory" / f"BENCH_{args.label}.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

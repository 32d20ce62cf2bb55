"""What each benchmark workload runs, what it emits, and how it is checked.

Every workload has three parts:

* ``execute(gens, m)`` is the timed call into the package for one input.
  ``m`` holds the package modules; every call goes through a module
  attribute, so the tracer's wrappers see it.
* ``canonical(result)`` turns the result into bytes whose SHA-256 is the
  input's digest, recorded in ``corpus.json`` when the corpus was built.
* ``checks(gens, result, m)`` runs the cross-route checks from outside the
  package and returns the names of the checks that failed.

``canonical`` and ``checks`` run outside the timed section and with tracing
off.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

MODULES = ("semigroup", "qres", "detcalc", "plumbing", "splice", "cli")


def import_package(src: Path) -> types.SimpleNamespace:
    """Import ``branchlink`` from ``src`` afresh, dropping any earlier import.

    Returns a namespace with one attribute per public module.
    """
    if not (src / "branchlink" / "__init__.py").is_file():
        raise FileNotFoundError(f"no branchlink package under {src}")
    for name in [n for n in sys.modules if n == "branchlink" or n.startswith("branchlink.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("branchlink")
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"branchlink was imported from {origin}, not from {src}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"branchlink.{name}") for name in MODULES}
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


# ----------------------------------------------------------------------------
# census: the real entry point, `branchlink analyze <gens> --json`, in-process


def census_execute(gens, m):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(["analyze", ",".join(map(str, gens)), "--json"])
    return code, out.getvalue()


def census_canonical(result) -> bytes:
    return result[1].encode()


def _topological_class(graph: dict, h1: dict) -> str:
    """Class read off the emitted plumbing graph and H1, not the gcd criterion."""
    n = len(graph["vertices"])
    adj = {i: [] for i in range(n)}
    for i, j in graph["edges"]:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen, stack = set(), [0]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(adj[u])
    tree = len(graph["edges"]) == n - 1 and len(seen) == n
    rational = all(int(v["genus"]) == 0 for v in graph["vertices"])
    if not (tree and rational):
        return "not_QHS"
    return "ZHS" if not h1["torsion"] else "QHS"


def census_report_failures(report: dict) -> list[str]:
    """Cross-route checks on one `analyze --json` report."""
    failed = []
    dets = report["determinants"]
    torsion_order = 1
    for t in report["h1"]["torsion"]:
        torsion_order *= int(t)
    if torsion_order != int(dets["detS"]):
        failed.append("h1_torsion_order_is_detS")
    if "detA_closed_form" in dets and Fraction(dets["detA"]) != Fraction(dets["detA_closed_form"]):
        failed.append("detA_is_closed_form")
    if report["link"]["class"] != _topological_class(report["plumbing"], report["h1"]):
        failed.append("gcd_class_is_topological_class")
    N = [int(x) for x in report["qresolution"]["N"]]
    mults = report["plumbing"]["multiplicities"]
    for v in report["plumbing"]["vertices"]:
        label = v["label"]
        if label.startswith("E"):
            level = int(label[1:].split(".")[0])
            if int(mults[int(v["id"])]) != N[level - 1]:
                failed.append("strict_multiplicity_is_N_k")
                break
    for entry in report.get("splice", {}).get("semigroup_condition", []):
        total = sum(int(a) * int(l) for a, l in zip(entry["alphas"], entry["lprimes"]))
        if total != int(entry["weight"]):
            failed.append("witness_sums_to_weight")
            break
    return failed


def census_checks(gens, result, m) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit_code_{code}"]
    return census_report_failures(json.loads(text))


# ----------------------------------------------------------------------------
# zhs_splice: the splice path of an integral homology sphere link


def zhs_execute(gens, m):
    cd = m.semigroup.derive_from_generators(gens)
    qr = m.qres.compute_qresolution(cd)
    pg = m.plumbing.assemble_full_resolution(qr)
    sd = m.splice.splice_from_plumbing(pg)
    expected = m.splice.expected_splice_diagram(cd)
    isomorphic = m.splice.diagrams_isomorphic(sd, expected)
    equations = m.splice.splice_equations(expected, cd)
    semigroup = m.splice.check_semigroup_condition(expected)
    return {
        "cd": cd,
        "graph": pg,
        "from_plumbing": sd,
        "expected": expected,
        "isomorphic": isomorphic,
        "equations": equations,
        "semigroup": semigroup,
    }


def _weights(sd) -> list:
    return sorted([sd.labels[v], sd.labels[u], w] for (v, u), w in sd.weights.items())


def zhs_canonical(r) -> bytes:
    ex = r["expected"]
    return _dumps(
        {
            "vertices": r["graph"].n,
            "from_plumbing": _weights(r["from_plumbing"]),
            "expected": _weights(ex),
            "isomorphic": r["isomorphic"],
            "equations": r["equations"].render(),
            "semigroup_condition": [
                [ex.labels[e.node], ex.labels[e.toward], e.weight, list(e.lprimes),
                 None if e.alphas is None else list(e.alphas)]
                for e in r["semigroup"].entries
            ],
        }
    )


def _witness_failures(report) -> list[str]:
    for e in report.entries:
        if e.alphas is None or sum(a * l for a, l in zip(e.alphas, e.lprimes)) != e.weight:
            return ["witness_sums_to_weight"]
    return []


def zhs_checks(gens, r, m) -> list[str]:
    failed = []
    if not r["isomorphic"]:
        failed.append("splice_from_plumbing_is_closed_form")
    failed += _witness_failures(r["semigroup"])
    gcd_class = m.detcalc.classify_link(r["cd"]).kind
    if gcd_class is not m.plumbing.classify_topologically(r["graph"]).kind:
        failed.append("gcd_class_is_topological_class")
    return failed


# ----------------------------------------------------------------------------
# deep_graph: the graph half of `analyze`, without the Smith form


def deep_graph_execute(gens, m):
    cd = m.semigroup.derive_from_generators(gens)
    qr = m.qres.compute_qresolution(cd)
    pg = m.plumbing.assemble_full_resolution(qr)
    topo = m.plumbing.classify_topologically(pg)
    det = m.plumbing.graph_determinant(pg)
    det_s = m.detcalc.det_S(cd, qr)
    negative_definite = m.plumbing.is_negative_definite(pg)
    multiplicities = m.plumbing.pullback_on_full_resolution(pg, qr)
    reduced, contracted = m.plumbing.minimize(pg)
    return {
        "cd": cd,
        "qr": qr,
        "graph": pg,
        "graph_json": m.plumbing.to_json_dict(pg),
        "topological": topo.kind.value,
        "gcd": m.detcalc.classify_link(cd).kind.value,
        "det": det,
        "detS": det_s,
        "negative_definite": negative_definite,
        "multiplicities": multiplicities,
        "contracted": contracted,
        "minimal_json": m.plumbing.to_json_dict(reduced),
    }


def deep_graph_canonical(r) -> bytes:
    return _dumps(
        {
            "graph": r["graph_json"],
            "multiplicities": [r["multiplicities"][v] for v in range(r["graph"].n)],
            "topological": r["topological"],
            "gcd": r["gcd"],
            "det": r["det"],
            "detS": r["detS"],
            "negative_definite": r["negative_definite"],
            "contracted": r["contracted"],
            "minimal": r["minimal_json"],
        }
    )


def deep_graph_checks(gens, r, m) -> list[str]:
    failed = []
    if r["det"] != r["detS"]:
        failed.append("graph_determinant_is_detS")
    if not r["negative_definite"]:
        failed.append("negative_definite")
    if r["gcd"] != r["topological"]:
        failed.append("gcd_class_is_topological_class")
    qr = r["qr"]
    if any(
        r["multiplicities"][vid] != qr.N[k]
        for k in range(1, qr.g)
        for vid in r["graph"].strict[k - 1]
    ):
        failed.append("strict_multiplicity_is_N_k")
    return failed


# ----------------------------------------------------------------------------
# deep_partial: the partial-resolution half of `analyze` at g = 10-11


def deep_partial_execute(gens, m):
    cd = m.semigroup.derive_from_generators(gens)
    qr = m.qres.compute_qresolution(cd)
    matrix = m.detcalc.build_intersection_matrix(qr)
    return {
        "qr": qr,
        "dimA": matrix.n,
        "detA": m.detcalc.det_exact(matrix),
        "closed": m.detcalc.det_closed_form(qr),
        "detS": m.detcalc.det_S(cd, qr),
        "link": m.detcalc.classify_link(cd),
        "rupture": m.qres.rupture_census(qr),
    }


def deep_partial_canonical(r) -> bytes:
    qr, link, rc = r["qr"], r["link"], r["rupture"]
    return _dumps(
        {
            "dimA": r["dimA"],
            "detA": str(r["detA"]),
            "closed": str(r["closed"]),
            "detS": r["detS"],
            "class": link.kind.value,
            "witnesses": [
                [w.k, w.gcd_n_lcm, w.gcd_quot_lcm, w.gcd_quot_e] for w in link.witnesses
            ],
            "r": qr.r,
            "N": qr.N,
            "M": qr.M,
            "a": [str(a) for a in qr.a],
            "census": [[p.kind, p.level, p.total, p.hj.d, p.hj.q] for p in qr.census],
            "rupture": [rc.rupture_count, rc.e_last_rupture, rc.e_last_contractible],
        }
    )


def deep_partial_checks(gens, r, m) -> list[str]:
    return [] if r["detA"] == r["closed"] else ["detA_is_closed_form"]


WORKLOADS = {
    "census": (census_execute, census_canonical, census_checks),
    "zhs_splice": (zhs_execute, zhs_canonical, zhs_checks),
    "deep_graph": (deep_graph_execute, deep_graph_canonical, deep_graph_checks),
    "deep_partial": (deep_partial_execute, deep_partial_canonical, deep_partial_checks),
}

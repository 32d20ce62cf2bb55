"""Batch command-line interface.

Subcommands: analyze (full report), random (generator sampling), bp
(Brieskorn-Pham classification), splice (diagram/equations only), graph
(DOT only).  All integers in JSON output are decimal strings so consumers
never face word-size limits.  Exit codes: 0 success, 2 invalid input,
1 failed internal check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .semigroup import (
    NotAPlaneSemigroup,
    derive_from_generators,
    monomial_curve_equations,
    random_plane_semigroup,
)
from .qres import compute_qresolution, rupture_census, strict_self_intersection
from .detcalc import (
    build_intersection_matrix,
    classify_brieskorn_pham,
    classify_link,
    det_closed_form,
    det_exact,
    det_S,
)
from . import plumbing as pl
from . import splice as sp


def _enc(value):
    """Recursively stringify integers and fractions for JSON output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, (list, tuple)):
        return [_enc(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _enc(v) for k, v in value.items()}
    return value


def _print_json(payload) -> None:
    """Write the encoded payload to stdout as indented JSON in one write."""
    sys.stdout.write(json.dumps(_enc(payload), indent=2) + "\n")


class InvalidInput(ValueError):
    """Malformed command-line input; main() reports it with exit code 2."""


def parse_generators(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("{"):
        try:
            items = json.loads(text)["generators"]
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"malformed JSON: {exc}") from exc
        except KeyError as exc:
            raise InvalidInput('JSON input has no "generators" list') from exc
        if not isinstance(items, list) or any(isinstance(x, (bool, float)) for x in items):
            raise InvalidInput(f"generators must be a list of integers, got {json.dumps(items)}")
    else:
        items = text.replace(",", " ").split()
    try:
        return tuple(int(x) for x in items)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"generators must be integers: {exc}") from exc


def _write_dot(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc


def _checked_graph(qr, link):
    """The full plumbing graph, its topological class checked against the
    gcd class ``link``."""
    graph = pl.assemble_full_resolution(qr)
    if pl.classify_topologically(graph).kind != link.kind:
        raise ArithmeticError("classifier routes disagree")
    return graph


def _splice_section(cd, graph) -> tuple[dict, sp.SpliceDiagram]:
    """The splice part of a report for an integral homology sphere link.

    Checks the diagram read off the plumbing graph against the closed-form
    one and the semigroup condition on the latter; returns the rendered
    section and the closed-form diagram.
    """
    sd = sp.splice_from_plumbing(graph)
    expected = sp.expected_splice_diagram(cd)
    if not sp.diagrams_isomorphic(sd, expected):
        raise ArithmeticError("splice diagram mismatch")
    eqs = sp.splice_equations(expected, cd)
    semi = sp.check_semigroup_condition(expected)
    if not semi.satisfied:
        raise ArithmeticError("semigroup condition fails on the closed-form diagram")
    section = {
        "nodes": [expected.labels[v] for v in sorted(expected.nodes)],
        "leaves": [expected.labels[v] for v in sorted(expected.leaves)],
        "weights": {
            f"{expected.labels[v]}->{expected.labels[u]}": w
            for (v, u), w in sorted(expected.weights.items())
        },
        "edge_determinants": [w for _, w in sorted(sp.edge_determinants(expected).items())],
        "equations": eqs.render(),
        "semigroup_condition": [
            {
                "node": expected.labels[e.node],
                "toward": expected.labels[e.toward],
                "weight": e.weight,
                "lprimes": list(e.lprimes),
                "alphas": list(e.alphas),
            }
            for e in semi.entries
        ],
    }
    return section, expected


def build_report(generators, minimize_pass: bool = False, dot_path=None) -> dict:
    """Full analysis report; every dual-route check runs on the way.

    With dot_path, also writes the plumbing graph the report was built from
    (its minimal model with minimize_pass) as DOT to that file.
    """
    cd = derive_from_generators(generators)
    qr = compute_qresolution(cd)
    link = classify_link(cd)
    g = cd.g

    report = {
        "input": {"generators": list(cd.beta)},
        "characteristic": {
            "g": g,
            "beta": list(cd.beta),
            "e": list(cd.e),
            "n": list(cd.n),
            "b": [list(cd.b_row(i)) for i in range(1, g + 1)],
            "equations": [str(eq) for eq in monomial_curve_equations(cd)],
        },
        "qresolution": {
            "r": list(qr.r),
            "N": list(qr.N[1:]),
            "M": list(qr.M),
            "d_point": list(qr.d_point),
            "d_edge": list(qr.d_edge[1:]),
            "d_last": qr.d_last,
            "genus": list(qr.genus[1:]),
            "self_intersections": list(qr.a[1:]),
            "census": [
                {
                    "kind": pt.kind,
                    "level": pt.level,
                    "count": pt.total,
                    "d": pt.hj.d,
                    "q": pt.hj.q,
                }
                for pt in qr.census
            ],
        },
    }

    matrix = build_intersection_matrix(qr)
    det_a = det_exact(matrix)
    dets = {"detA": det_a}
    closed = det_closed_form(qr)
    if closed != det_a:
        raise ArithmeticError("det A routes disagree")
    if g >= 3:
        dets["detA_closed_form"] = closed
    dets["detS"] = det_S(cd, qr)
    report["determinants"] = dets

    report["link"] = {
        "class": link.kind.value,
        "witnesses": [
            {
                "k": w.k,
                "gcd_n_lcm": w.gcd_n_lcm,
                "gcd_quot_lcm": w.gcd_quot_lcm,
                **({"gcd_quot_e": w.gcd_quot_e} if w.gcd_quot_e is not None else {}),
            }
            for w in link.witnesses
        ],
        "noncoprime_pairs": [list(t) for t in link.noncoprime_pairs],
    }

    graph = _checked_graph(qr, link)
    h1 = pl.h1_link(graph)
    if h1.torsion_order != dets["detS"]:
        raise ArithmeticError("torsion order is not det(S)")
    multiplicities = pl.pullback_on_full_resolution(graph, qr)
    report["plumbing"] = pl.to_json_dict(graph)
    report["plumbing"]["multiplicities"] = multiplicities
    report["h1"] = {"free_rank": h1.free_rank, "torsion": list(h1.torsion)}

    if g >= 3:
        rc = rupture_census(qr)
        report["rupture"] = {
            "rupture_count": rc.rupture_count,
            "e_last_rupture": rc.e_last_rupture,
            "e_last_contractible": rc.e_last_contractible,
        }
    report["strict_self_intersections"] = [
        strict_self_intersection(qr, k) for k in range(1, g)
    ]

    drawn = graph
    if minimize_pass:
        reduced, contracted = pl.minimize(graph)
        drawn = reduced
        report["minimal_model"] = {
            "contracted": contracted,
            "vertex_count": reduced.n,
            "graph": pl.to_json_dict(reduced),
        }

    if link.is_zhs:
        report["splice"], _ = _splice_section(cd, graph)
    if dot_path is not None:
        _write_dot(dot_path, pl.to_dot(drawn))
    return report


def _print_text_report(report: dict, out) -> None:
    ch = report["characteristic"]
    print(f"generators : {ch['beta']}", file=out)
    print(f"e          : {ch['e']}", file=out)
    print(f"n          : {ch['n']}", file=out)
    for eq in ch["equations"]:
        print(f"  equation : {eq} = 0", file=out)
    qres = report["qresolution"]
    print(f"r          : {qres['r']}", file=out)
    print(f"N          : {qres['N']}", file=out)
    print(f"genera     : {qres['genus']}", file=out)
    print(f"self-int   : {[str(a) for a in qres['self_intersections']]}", file=out)
    for pt in qres["census"]:
        print(
            f"  census   : {pt['kind']:<4} level {pt['level']} count {pt['count']} "
            f"type 1/{pt['d']}({1 if pt['d'] > 1 else 0},{pt['q']})",
            file=out,
        )
    dets = report["determinants"]
    print(f"det A      : {dets['detA']}", file=out)
    print(f"det S      : {dets['detS']}", file=out)
    print(f"link class : {report['link']['class']}", file=out)
    h1 = report["h1"]
    print(f"H1         : free rank {h1['free_rank']}, torsion {h1['torsion']}", file=out)
    if "rupture" in report:
        r = report["rupture"]
        print(
            f"rupture    : {r['rupture_count']} forced; last curve contractible: "
            f"{r['e_last_contractible']}",
            file=out,
        )
    if "minimal_model" in report:
        mm = report["minimal_model"]
        print(
            f"minimal    : contracted {mm['contracted']} -> {mm['vertex_count']} vertices",
            file=out,
        )
    if "splice" in report:
        print("splice     :", file=out)
        for eq in report["splice"]["equations"]:
            print(f"  {eq}", file=out)


def cmd_analyze(args) -> int:
    generators = parse_generators(args.generators)
    report = build_report(generators, minimize_pass=args.minimize, dot_path=args.dot)
    if args.json:
        _print_json(report)
    else:
        _print_text_report(report, sys.stdout)
    return 0


def cmd_random(args) -> int:
    if args.g < 2 or args.max_n < 2:
        raise InvalidInput("--g and --max-n must be at least 2")
    if args.count < 0:
        raise InvalidInput("--count must be at least 0")
    rng_seed = args.seed
    for i in range(args.count):
        beta = random_plane_semigroup(args.g, args.max_n, seed=f"{rng_seed}:{i}")
        print(",".join(str(x) for x in beta))
    return 0


def cmd_bp(args) -> int:
    if min(args.a1, args.a2, args.a3) < 2:
        raise InvalidInput("Brieskorn-Pham exponents must be at least 2")
    bp = classify_brieskorn_pham(args.a1, args.a2, args.a3)
    payload = {
        "exponents": list(bp.exponents),
        "class": bp.kind.value,
        "genus": bp.genus,
        "determinant": bp.determinant,
        "e": bp.e,
        "alpha": list(bp.alpha),
        "d": list(bp.d),
    }
    if args.json:
        _print_json(payload)
    else:
        print(
            f"S({bp.exponents[0]},{bp.exponents[1]},{bp.exponents[2]}): "
            f"{bp.kind.value}, genus {bp.genus}, determinant {bp.determinant}"
        )
    return 0


def cmd_splice(args) -> int:
    generators = parse_generators(args.generators)
    cd = derive_from_generators(generators)
    link = classify_link(cd)
    if not link.is_zhs:
        print(f"link class is {link.kind.value}; no splice diagram", file=sys.stderr)
        return 0
    graph = _checked_graph(compute_qresolution(cd), link)
    payload, diagram = _splice_section(cd, graph)
    if args.dot is not None:
        _write_dot(args.dot, _splice_dot(diagram))
    if args.json:
        _print_json(payload)
    else:
        print(f"nodes  : {payload['nodes']}")
        print(f"leaves : {payload['leaves']}")
        for key, w in payload["weights"].items():
            print(f"  weight {key} = {w}")
        for eq in payload["equations"]:
            print(f"  {eq}")
    return 0


def _splice_dot(sd) -> str:
    lines = ["graph splice {"]
    for v in sorted(sd.nodes):
        lines.append(f'  v{v} [shape=point, xlabel="{sd.labels[v]}"];')
    for v in sorted(sd.leaves):
        lines.append(f'  v{v} [shape=circle, label="{sd.labels[v]}"];')
    for i, j in sd.edges:
        parts = []
        if (i, j) in sd.weights:
            parts.append(f'taillabel="{sd.weights[(i, j)]}"')
        if (j, i) in sd.weights:
            parts.append(f'headlabel="{sd.weights[(j, i)]}"')
        lines.append(f"  v{i} -- v{j} [{', '.join(parts)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    generators = parse_generators(args.generators)
    cd = derive_from_generators(generators)
    graph = _checked_graph(compute_qresolution(cd), classify_link(cd))
    if args.minimize:
        graph, _ = pl.minimize(graph)
    text = pl.to_dot(graph)
    if args.dot is not None:
        _write_dot(args.dot, text)
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlink",
        description="Resolution combinatorics and link invariants of "
        "monomial-curve embedding surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one generator list")
    p.add_argument("generators", help='e.g. "8,12,26,53" or \'{"generators":[8,12,26,53]}\'')
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="PATH", help="write the plumbing graph as DOT")
    p.add_argument("--minimize", action="store_true", help="apply the contraction pass")

    p = sub.add_parser("random", help="emit random valid generator lists")
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bp", help="classify a Brieskorn-Pham surface link")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("a3", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("splice", help="splice diagram and equations only")
    p.add_argument("generators")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="PATH")

    p = sub.add_parser("graph", help="plumbing graph as DOT")
    p.add_argument("generators")
    p.add_argument("--dot", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--minimize", action="store_true")
    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    # the handler is looked up by name on every call, so a wrapper or patch
    # put over cli.cmd_<command> after the parser was built still applies
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except NotAPlaneSemigroup as exc:
        print(f"invalid semigroup: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (
        ArithmeticError,
        pl.NotNegativeDefinite,
        pl.NotATree,
        sp.ENViolation,
        sp.SemigroupConditionFails,
    ) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

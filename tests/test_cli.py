import json
import subprocess
import sys

import pytest

from branchlink.cli import build_report, main, parse_generators
from branchlink.semigroup import derive_from_generators
from branchlink.detcalc import det_S
from conftest import plumbing_graph, src_env


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "branchlink", *args],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    return proc


def test_parse_generators_forms():
    assert parse_generators("8,12,26,53") == (8, 12, 26, 53)
    assert parse_generators("8 12 26 53") == (8, 12, 26, 53)
    assert parse_generators('{"generators": [8, 12, 26, 53]}') == (8, 12, 26, 53)
    assert parse_generators('{"generators": ["8", "12", "26", "53"]}') == (8, 12, 26, 53)


def test_analyze_exit_codes():
    assert main(["analyze", "70,105,215,1511"]) == 0
    assert main(["analyze", "1,2"]) == 2


def test_analyze_json_roundtrip(capsys):
    assert main(["analyze", "8,12,26,53", "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    # re-ingesting the echoed input reproduces the identical report
    echoed = ",".join(payload["input"]["generators"])
    assert main(["analyze", echoed, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_json_values_are_decimal_strings():
    report = build_report((70, 105, 215, 1511))
    from branchlink.cli import _enc

    payload = _enc(report)
    assert payload["determinants"]["detS"] == "1"
    assert payload["characteristic"]["beta"] == ["70", "105", "215", "1511"]
    assert payload["link"]["class"] == "ZHS"
    assert "splice" in payload


def test_text_and_json_agree(capsys):
    main(["analyze", "8,12,26,53"])
    text = capsys.readouterr().out
    main(["analyze", "8,12,26,53", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert f"det S      : {payload['determinants']['detS']}" in text
    assert f"link class : {payload['link']['class']}" in text


def test_analyze_writes_dot(tmp_path):
    out = tmp_path / "graph.dot"
    assert main(["analyze", "8,12,26,53", "--dot", str(out)]) == 0
    dot = out.read_text()
    assert dot.startswith("graph plumbing {")
    assert dot.count("--") == 12 + 1  # tree edges plus the arrow edge


def test_minimize_flag_reports_contraction(capsys):
    assert main(["analyze", "8,12,26,53", "--minimize"]) == 0
    text = capsys.readouterr().out
    assert "contracted ['E2.1']" in text


def test_random_is_deterministic_and_valid(capsys):
    assert main(["random", "--g", "3", "--max-n", "4", "--count", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--g", "3", "--max-n", "4", "--count", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert main(["analyze", line]) == 0
    capsys.readouterr()


def test_random_g2_routes_through_bp(capsys):
    assert main(["random", "--g", "2", "--count", "2", "--seed", "4"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        report = build_report(parse_generators(line))
        assert report["characteristic"]["g"] == 2
        assert "detS" in report["determinants"]


def test_bp_subcommand(capsys):
    assert main(["bp", "2", "3", "5"]) == 0
    assert "ZHS" in capsys.readouterr().out
    assert main(["bp", "2", "2", "2"]) == 0
    assert "QHS" in capsys.readouterr().out
    assert main(["bp", "6", "10", "15", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "not_QHS"
    assert payload["genus"] == "11"


def test_splice_subcommand(capsys):
    assert main(["splice", "70,105,215,1511", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equations"] == [
        "z1^2 + z2^7 + z0^3 = 0",
        "z2^7 + z3^5 + z0^20*z1 = 0",
    ]


def test_splice_subcommand_non_integral(capsys):
    assert main(["splice", "8,12,26,53"]) == 0
    err = capsys.readouterr().err
    assert "no splice diagram" in err


def test_graph_subcommand(capsys, tmp_path):
    assert main(["graph", "70,105,215,1511"]) == 0
    assert capsys.readouterr().out.startswith("graph plumbing {")
    out = tmp_path / "g.dot"
    assert main(["graph", "8,12,26,53", "--minimize", "--dot", str(out)]) == 0
    assert "[0, -1]" not in out.read_text()  # the -1 curve was contracted


def test_graph_checks_the_classifier_routes(monkeypatch, capsys):
    from branchlink import cli
    from branchlink.detcalc import LinkClass, LinkKind

    monkeypatch.setattr(
        cli.pl, "classify_topologically", lambda graph: LinkClass(LinkKind.NOT_QHS, (), ())
    )
    assert main(["graph", "70,105,215,1511"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: classifier routes disagree\n"


def test_cli_process_entry_point():
    proc = run_cli("analyze", "2,3,4")
    assert proc.returncode == 2
    assert "invalid semigroup" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8,12,x"],
        ["analyze", '{"gens":[1]}'],
        ["bp", "1", "2", "3"],
        ["random", "--g", "1"],
        ["analyze", '{"generators":[8,12,26,53.7]}'],
        ["analyze", '{"generators":[true,12,26,53]}'],
        ["analyze", '{"generators":"8122653"}'],
        ["random", "--count", "-1"],
        ["analyze", "8,12,26,53", "--dot", "/dev/null/x.dot"],
        ["graph", "8,12,26,53", "--dot", "/dev/null/x.dot"],
        ["splice", "70,105,215,1511", "--dot", "/dev/null/x.dot"],
        ["analyze", "8,12,26,53", "--dot", ""],
        ["graph", "8,12,26,53", "--dot", ""],
        ["splice", "70,105,215,1511", "--dot", ""],
        ["analyze", '{"generators":[8,12'],
    ],
)
def test_invalid_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert captured.err.count("\n") == 1


def test_analyze_g5_finishes_with_torsion_equal_to_det_S(capsys):
    gens = "432,1188,4824,14556,43708,131127"
    assert main(["analyze", gens, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["plumbing"]["vertices"]) == 1266
    torsion = 1
    for f in payload["h1"]["torsion"]:
        torsion *= int(f)
    det = det_S(derive_from_generators(parse_generators(gens)))
    assert torsion == int(payload["determinants"]["detS"]) == det
    assert len(str(det)) == 46


@pytest.mark.parametrize(
    "generators, edges, self_int",
    [
        ("8,12,26,53", (), 2),  # QHS input, an indefinite one-vertex graph of det 2
        ("24,36,75,311", ((0, 1), (1, 2), (2, 0)), -3),  # not-QHS input, a cycle
    ],
)
def test_graph_errors_exit_1_with_one_line(generators, edges, self_int, monkeypatch, capsys):
    from branchlink import cli
    n = max((max(e) for e in edges), default=0) + 1
    graph = plumbing_graph([self_int] * n, edges)
    monkeypatch.setattr(cli.pl, "assemble_full_resolution", lambda qr: graph)
    assert main(["analyze", generators]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1


def test_det_a_route_mismatch_exits_1(monkeypatch, capsys):
    from fractions import Fraction

    from branchlink import cli

    monkeypatch.setattr(cli, "det_closed_form", lambda qr: Fraction(-1, 441))
    assert main(["analyze", "8,12,26,53", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: det A routes disagree\n"


def test_zhs_report_builds_one_tree_kernel(monkeypatch):
    from branchlink import _linalg

    built = []

    class CountingKernel(_linalg.TreeKernel):
        def __init__(self, diag, edges):
            built.append(len(diag))
            super().__init__(diag, edges)

    monkeypatch.setattr(_linalg, "TreeKernel", CountingKernel)
    report = build_report((70, 105, 215, 1511))
    assert report["link"]["class"] == "ZHS" and "splice" in report
    graph = len(report["plumbing"]["vertices"])
    # one kernel for the partial-resolution matrix, one for the plumbing graph
    assert sorted(built) == sorted([sum(report["qresolution"]["r"][1:]), graph])


def test_det_closed_form_is_evaluated_once_per_report(monkeypatch):
    from branchlink import cli, detcalc

    calls = []
    real = detcalc.det_closed_form

    def counting(qr):
        calls.append(qr)
        return real(qr)

    # patched where it is defined and where cli imported it by name
    monkeypatch.setattr(detcalc, "det_closed_form", counting)
    monkeypatch.setattr(cli, "det_closed_form", counting)
    report = build_report((8, 12, 26, 53))
    assert len(calls) == 1
    assert report["determinants"]["detA_closed_form"] == report["determinants"]["detA"]


def test_analyze_builds_the_closed_form_diagram_once(monkeypatch, capsys):
    from collections import Counter

    from branchlink import cli, splice

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    # classify_link is patched in both modules that imported it by name
    count(cli, "classify_link")
    count(splice, "classify_link")
    count(splice, "expected_splice_diagram")
    count(splice, "diagrams_isomorphic")
    assert main(["analyze", "70,105,215,1511", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["splice"]["equations"]
    assert calls == {"classify_link": 2, "expected_splice_diagram": 1, "diagrams_isomorphic": 1}


def test_analyze_dot_assembles_once_and_minimizes_once(monkeypatch, tmp_path, capsys):
    from branchlink import cli

    counts = {"assemble": 0, "minimize": 0}
    real_assemble, real_minimize = cli.pl.assemble_full_resolution, cli.pl.minimize

    def assemble(qr):
        counts["assemble"] += 1
        return real_assemble(qr)

    def minimize(graph):
        counts["minimize"] += 1
        return real_minimize(graph)

    monkeypatch.setattr(cli.pl, "assemble_full_resolution", assemble)
    monkeypatch.setattr(cli.pl, "minimize", minimize)
    out = tmp_path / "graph.dot"
    assert main(["analyze", "8,12,26,53", "--dot", str(out), "--minimize", "--json"]) == 0
    assert counts == {"assemble": 1, "minimize": 1}
    assert "minimal_model" in json.loads(capsys.readouterr().out)
    qr = cli.compute_qresolution(derive_from_generators((8, 12, 26, 53)))
    assert out.read_text() == cli.pl.to_dot(real_minimize(real_assemble(qr))[0])


def test_parser_is_built_once_and_handlers_are_found_at_call_time(monkeypatch, capsys):
    from branchlink import cli

    built = []
    real_make_parser = cli.make_parser

    def counting_make_parser():
        built.append(1)
        return real_make_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counting_make_parser)
    assert main(["bp", "2", "3", "5"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_bp", lambda args: seen.append(args.a3) or 0)
    assert main(["bp", "2", "3", "7"]) == 0
    assert seen == [7]
    assert len(built) == 1
    assert "ZHS" in capsys.readouterr().out


def test_splice_computes_only_what_it_prints(monkeypatch, capsys):
    from collections import Counter

    from branchlink import cli

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in (
        "derive_from_generators",
        "compute_qresolution",
        "classify_link",
        "build_intersection_matrix",
        "det_closed_form",
        "det_S",
    ):
        count(cli, name)
    for name in (
        "assemble_full_resolution",
        "h1_link",
        "pullback_on_full_resolution",
        "to_json_dict",
        "minimize",
    ):
        count(cli.pl, name)
    assert main(["splice", "70,105,215,1511", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equations"]
    assert dict(calls) == {
        "derive_from_generators": 1,
        "classify_link": 1,
        "compute_qresolution": 1,
        "assemble_full_resolution": 1,
    }


@pytest.mark.parametrize(
    "name, error",
    [
        ("verify_en_conditions", "ENViolation"),
        ("splice_equations", "SemigroupConditionFails"),
    ],
)
def test_splice_internal_errors_exit_1_with_one_line(name, error, monkeypatch, capsys):
    from branchlink import splice

    def fail(*args):
        raise getattr(splice, error)(f"forced {name}")

    monkeypatch.setattr(splice, name, fail)
    assert main(["splice", "70,105,215,1511", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: forced {name}\n"

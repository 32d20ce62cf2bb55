"""``cli._render`` against the old ``--json`` route, ``json_oracle``.

Every payload the CLI prints is compared byte for byte: the golden
``--json`` corpus (``analyze`` with and without ``--minimize``, ``splice``
and ``bp``), 30 seeded draws with g = 2-5 and at most 2,000 plumbing
vertices, and hand-made values that reach every branch of the writer.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from branchlink import cli
from branchlink.plumbing import assemble_full_resolution
from branchlink.qres import compute_qresolution
from branchlink.semigroup import derive_from_generators, random_plane_semigroup
from conftest import json_oracle

GOLDEN = json.loads((pathlib.Path(__file__).with_name("golden_digests.json")).read_text())


def test_render_matches_oracle_on_golden_payloads(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_print_json", payloads.append)
    commands = set()
    for case in GOLDEN:
        assert cli.main(case["argv"]) == 0
        commands.add(case["argv"][0])
    assert commands == {"analyze", "splice", "bp"}
    assert len(payloads) == len(GOLDEN)
    for payload in payloads:
        assert cli._render(payload) == json_oracle(payload)


def test_render_matches_oracle_on_seeded_draws():
    drawn = 0
    for i in range(100):
        g = 2 + i % 4
        beta = random_plane_semigroup(g, 4 if g < 5 else 3, seed=f"render:{i}")
        if assemble_full_resolution(compute_qresolution(derive_from_generators(beta))).n > 2000:
            continue
        report = cli.build_report(beta, minimize_pass=i % 2 == 1)
        assert cli._render(report) == json_oracle(report)
        drawn += 1
        if drawn == 30:
            break
    assert drawn == 30


HAND_PAYLOADS = [
    [],
    {},
    (),
    [[], {}, ()],
    {"a": [], "b": {}, "c": ((), [[]]), "d": {"e": {}}},
    [True, False, {"t": True, "f": False}],
    [0, -1, -(10**60), 10**60],
    [Fraction(-3), Fraction(4, 1), Fraction(-7, 3), Fraction(1, 10**30)],
    ['quote " here', "back\\slash", "café", "tab\tnewline\n", "☃", ""],
    {'key "quoted"': "v", "clé": ["x", 1, Fraction(1, 2)]},
    ([1, (2, [3, {"n": (4,)}])],),
]


@pytest.mark.parametrize("payload", HAND_PAYLOADS)
def test_render_matches_oracle_on_hand_payloads(payload):
    assert cli._render(payload) == json_oracle(payload)


@pytest.mark.parametrize("payload", [1.5, [{"x": 0.5}], {1, 2}, [frozenset()], {1: "a"}, {"a": {(1,): 2}}])
def test_render_refuses_other_types(payload):
    with pytest.raises(TypeError):
        cli._render(payload)

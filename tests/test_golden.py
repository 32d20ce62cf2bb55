"""Byte-identical CLI output on a fixed corpus.

``golden_digests.json`` holds the SHA-256 of the stdout of each listed
``branchlink`` command line.  The digests were recorded before the
partial-resolution determinant moved onto the tree kernel, so any change in
the rendered numbers, their order or their formatting shows up here.  The
corpus is the two PAPER.md examples and eight ``random_plane_semigroup``
draws with g = 2..6, through ``analyze --json`` with and without
``--minimize``, plus ``splice --json`` on the integral homology spheres.
``golden_dot_digests.json`` holds the SHA-256 of the file that
``analyze --dot PATH`` writes for the two PAPER.md examples, with and
without ``--minimize``, recorded while ``--dot`` still assembled the graph
a second time.
``golden_text_digests.json`` holds digests recorded before the census
chains were assembled by one incidence rule and before ``splice`` stopped
building the whole ``analyze`` report: the stdout of plain-text
``analyze`` and ``splice``, of ``graph`` with and without ``--minimize``,
and (argv with ``PATH``) the file ``splice --dot PATH`` writes.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from branchlink.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).with_name("golden_digests.json")).read_text())
GOLDEN_DOT = json.loads((pathlib.Path(__file__).with_name("golden_dot_digests.json")).read_text())
GOLDEN_TEXT = json.loads((pathlib.Path(__file__).with_name("golden_text_digests.json")).read_text())
STDOUT_CASES = GOLDEN + [case for case in GOLDEN_TEXT if "PATH" not in case["argv"]]
FILE_CASES = GOLDEN_DOT + [case for case in GOLDEN_TEXT if "PATH" in case["argv"]]


def cli_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", STDOUT_CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden_digest(case):
    assert cli_digest(case["argv"]) == case["sha256"]


@pytest.mark.parametrize("case", FILE_CASES, ids=lambda case: " ".join(case["argv"]))
def test_dot_file_matches_golden_digest(case, tmp_path):
    path = tmp_path / "graph.dot"
    argv = [str(path) if arg == "PATH" else arg for arg in case["argv"]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == case["sha256"]

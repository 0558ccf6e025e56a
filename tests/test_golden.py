"""Golden CLI transcript: every call of CORPUS replayed through `cli.main`.

tests/golden/cli.json holds the stdout, stderr and exit code of each call,
byte for byte. Paths are relative to the repository root, which is the
working directory while a call runs. After a deliberate change of output,
record the file again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from codebetti.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

CODES = ["data/demo_five_neurons.code", "data/four_cycle.code", "data/nested_chain.code"]
CODE_COMMANDS = [
    ["cf"],
    ["polarize"],
    ["graph"],
    ["graph", "--dot"],
    ["pierced"],
    ["pierced", "--certify"],
    ["betti"],
    ["validate"],
]
G = "tests/golden/"

CALLS = (
    [command[:1] + [path] + command[1:] for path in CODES for command in CODE_COMMANDS]
    + [[command, G + "silent.code", "--strip-silent"] for command in ("cf", "polarize", "graph", "pierced", "betti")]
    + [
        ["cf", G + "silent.code"],
        ["pierced", G + "silent.code"],
        ["pierced", CODES[0], "--order", "1,2,3,4,5"],
        ["pierced", CODES[0], "--order", "5,4,3,2,1"],
        ["betti", CODES[0], "--method", "formula"],
        ["betti", CODES[0], "--method", "recursion"],
        ["betti", CODES[0], "--method", "oracle"],
        ["betti", CODES[1], "--method", "oracle"],
        ["betti", CODES[1], "--method", "formula"],
        ["betti", "--ideal", G + "demo.ideal"],
        ["betti", "--ideal", G + "demo.ideal", "--method", "oracle"],
        ["chordal", G + "chordal.graph"],
        ["chordal", G + "cycle.graph"],
        ["generate", "--steps", G + "demo.steps"],
        ["generate", "--n", "6", "--seed", "7"],
        ["generate", "--n", "5", "--kmax", "1", "--seed", "2"],
        ["generate", "--n", "0"],
        ["invert", G + "graded.json"],
        ["invert", G + "multigraded.json"],
        ["invert", G + "graded.json", "--n", "6"],
        # exit 2: one malformed file per input format, then refused options and missing files
        ["cf", G + "bad.code"],
        ["betti", "--ideal", G + "bad.ideal"],
        ["chordal", G + "bad.graph"],
        ["generate", "--steps", G + "bad.steps"],
        ["invert", G + "bad.json"],
        ["betti", CODES[0], "--threads", "0"],
        ["betti", "--ideal", G + "demo.ideal", "--method", "all"],
        ["betti"],
        ["generate"],
        ["generate", "--n", "17"],
        ["cf", G + "missing.code"],
    ]
)
# every call runs with and without --json
CORPUS = [argv + extra for argv in CALLS for extra in ([], ["--json"])]


def call(argv):
    """(stdout, stderr, rc) of one `main` call run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), rc


def record() -> None:
    entries = []
    for argv in CORPUS:
        stdout, stderr, rc = call(argv)
        entries.append({"argv": argv, "rc": rc, "stdout": stdout, "stderr": stderr})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert [entry["argv"] for entry in golden] == CORPUS


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[" ".join(argv) for argv in CORPUS])
def test_golden_cli_transcript(golden, index):
    entry = golden[index]
    assert call(entry["argv"]) == (entry["stdout"], entry["stderr"], entry["rc"])


if __name__ == "__main__":
    record()

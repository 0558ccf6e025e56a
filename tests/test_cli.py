import argparse
import contextlib
import hashlib
import io
import importlib.util
import json
import re
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from codebetti import BettiTable, cli, oracle, piercing
from codebetti.cli import main
from codebetti.graphs import EliminationOrdering, all_elimination_orderings, chordality, parse_graph
from codebetti.piercing import PiercingOrder
from conftest import WORKED_LINES

WORKED = "\n".join(WORKED_LINES) + "\n"

DATA = Path(__file__).resolve().parent.parent / "data"
SCRIPTS = DATA.parent / "scripts"
DEMO = DATA / "demo_five_neurons.code"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden"

FOUR_CYCLE = "0\n1\n2\n3\n4\n1 2\n2 3\n3 4\n1 4\n"
WORKED_MULTIGRADED = [[0, 0, 0, 1], [1, 1, 1, 1], [1, 2, 0, 4], [2, 2, 1, 2], [2, 3, 0, 4], [3, 3, 1, 1], [3, 4, 0, 1]]


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "worked.code"
    p.write_text(WORKED)
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cf_human(worked_file, capsys):
    rc, out, _ = run(capsys, "cf", worked_file)
    assert rc == 0
    assert out.splitlines() == ["x1*x3", "x3*x4", "x5*(1-x3)", "x1*x5", "x4*x5"]


def test_cf_json(worked_file, capsys):
    rc, out, _ = run(capsys, "cf", worked_file, "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "cf"
    assert len(payload["output"]["canonical_form"]) == 5
    assert payload["warnings"] == []


def test_cf_nested(tmp_path, capsys):
    p = tmp_path / "nested.code"
    p.write_text("0\n1\n1 2\n1 2 3\n")
    rc, out, _ = run(capsys, "cf", str(p))
    assert rc == 0
    assert out.splitlines() == ["x2*(1-x1)", "x3*(1-x1)", "x3*(1-x2)"]


def test_cf_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.code"
    p.write_text("x\n")
    rc, _, err = run(capsys, "cf", str(p))
    assert rc == 2
    assert "error" in err


def test_polarize(worked_file, capsys):
    rc, out, _ = run(capsys, "polarize", worked_file)
    assert rc == 0
    assert out.splitlines() == ["n=5", "x1*x3", "x3*x4", "x5*y3", "x1*x5", "x4*x5"]


@pytest.mark.parametrize("path", sorted(DATA.glob("*.code")), ids=lambda p: p.name)
def test_polarize_prints_an_ideal_file_that_betti_reads_back(tmp_path, capsys, path):
    rc, ideal, _ = run(capsys, "polarize", str(path))
    assert rc == 0
    p = tmp_path / "polarized.ideal"
    p.write_text(ideal)
    expected = run(capsys, "betti", str(path), "--method", "oracle")
    assert expected[0] == 0
    assert run(capsys, "betti", "--ideal", str(p)) == expected


def test_polarize_prints_the_zero_ideal_as_0(tmp_path, capsys):
    p = tmp_path / "full.code"
    p.write_text("0\n1\n2\n1 2\n")
    rc, ideal, _ = run(capsys, "polarize", str(p))
    assert (rc, ideal) == (0, "n=2\n0\n")
    q = tmp_path / "zero.ideal"
    q.write_text(ideal)
    assert run(capsys, "betti", "--ideal", str(q)) == run(capsys, "betti", str(p), "--method", "oracle")


def test_graph_edges_and_dot(worked_file, capsys):
    rc, out, _ = run(capsys, "graph", worked_file)
    assert rc == 0
    assert out.splitlines() == ["n=5", "1-2", "1-4", "2-3", "2-4", "2-5"]
    rc, out, _ = run(capsys, "graph", worked_file, "--dot")
    assert rc == 0
    assert out.startswith("graph G {") and "2 -- 5;" in out


def test_pierced_worked(worked_file, capsys):
    rc, out, _ = run(capsys, "pierced", worked_file, "--certify")
    assert rc == 0
    head = out.splitlines()[0]
    assert head.startswith("inductively pierced; order ")
    assert head.endswith("j0=1 j1=3 j2=1 j3=0 j4=0")
    assert "j[1,1]=1" in out


def test_pierced_specific_orders(worked_file, capsys):
    rc, out, _ = run(capsys, "pierced", worked_file, "--order", "1,2,3,4,5")
    assert rc == 0 and "order 1,2,3,4,5" in out
    rc, out, _ = run(capsys, "pierced", worked_file, "--order", "1,4,2,3,5")
    assert rc == 0 and "j0=1 j1=3 j2=1" in out


@pytest.mark.parametrize("order", ["x", "1,2", "", "1,1,2,3,4", "1,2,3,4,6"])
def test_pierced_refuses_malformed_order_before_any_work(worked_file, capsys, monkeypatch, order):
    monkeypatch.setattr(cli, "is_inductively_pierced_fast", _refuse("is_inductively_pierced_fast"))
    rc, out, err = run(capsys, "pierced", worked_file, "--order", order)
    assert rc == 2 and out == ""
    assert f"--order expects a comma-separated permutation of 1..5, got {order!r}" in err


def test_pierced_four_cycle(tmp_path, capsys):
    p = tmp_path / "cycle.code"
    p.write_text(FOUR_CYCLE)
    rc, out, _ = run(capsys, "pierced", str(p), "--certify")
    assert rc == 0
    assert out.startswith("not inductively pierced (chordless 4-cycle")


def test_pierced_trivial(tmp_path, capsys):
    p = tmp_path / "trivial.code"
    p.write_text("0\n")
    rc, out, _ = run(capsys, "pierced", str(p))
    assert rc == 0
    assert out.startswith("inductively pierced; order ;")


def test_betti_all_methods(worked_file, capsys):
    rc, out, _ = run(capsys, "betti", worked_file, "--method", "all", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["output"]["total"] == [1, 5, 6, 2]
    assert payload["output"]["methods"] == ["formula", "oracle", "recursion"]


def test_betti_triangle_output(worked_file, capsys):
    rc, out, _ = run(capsys, "betti", worked_file, "--method", "formula")
    assert rc == 0
    assert "total" in out


def test_betti_formula_rejects_unpierced(tmp_path, capsys):
    p = tmp_path / "cycle.code"
    p.write_text(FOUR_CYCLE)
    rc, _, err = run(capsys, "betti", str(p), "--method", "formula")
    assert rc == 2
    assert "pierced" in err


def test_betti_oracle_on_unpierced(tmp_path, capsys):
    p = tmp_path / "cycle.code"
    p.write_text(FOUR_CYCLE)
    rc, out, _ = run(capsys, "betti", str(p), "--method", "oracle", "--json")
    assert rc == 0
    assert json.loads(out)["output"]["total"] == [1, 2, 1]


def test_betti_from_ideal_file(tmp_path, capsys):
    p = tmp_path / "ideal.txt"
    p.write_text("x1*x4\nx4*y3\n")
    rc, out, _ = run(capsys, "betti", "--ideal", str(p), "--method", "oracle", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["output"]["multigraded"] == [[0, 0, 0, 1], [1, 1, 1, 1], [1, 2, 0, 1], [2, 2, 1, 1]]
    # --method defaults to oracle for --ideal
    assert run(capsys, "betti", "--ideal", str(p), "--json") == (0, out, "")


def test_betti_refuses_a_variable_twice_in_one_monomial(tmp_path, capsys, monkeypatch):
    # read once, x1*x1*x2 would give the table of x1*x2, the radical's
    monkeypatch.setattr(cli, "betti_table_oracle", _refuse("betti_table_oracle"))
    p = tmp_path / "square.ideal"
    p.write_text("x2*x3\nx1*x1*x2\n")
    rc, out, err = run(capsys, "betti", "--ideal", str(p))
    assert (rc, out, err) == (2, "", "error: line 2: x1 appears twice: the monomial is not squarefree\n")


def test_betti_refuses_x_and_y_of_one_neuron_in_one_monomial(tmp_path, capsys, monkeypatch):
    # SquarefreeIdeal does not represent x1*y1; the refusal names its line
    monkeypatch.setattr(cli, "betti_table_oracle", _refuse("betti_table_oracle"))
    p = tmp_path / "xy.ideal"
    p.write_text("x2*x3\nx1*y1\n")
    rc, out, err = run(capsys, "betti", "--ideal", str(p))
    assert (rc, out, err) == (2, "", "error: line 2: x1 and y1 appear together: a generator may not hold both\n")


def test_betti_requires_input(capsys):
    rc, _, err = run(capsys, "betti", "--method", "oracle")
    assert rc == 2 and "code file" in err


def test_invert_graded(tmp_path, capsys):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": 5, "graded": [[1, 2, 5], [2, 3, 6], [3, 4, 2]]}))
    rc, out, _ = run(capsys, "invert", str(p))
    assert rc == 0
    assert out.strip() == "j0=1 j1=3 j2=1 j3=0 j4=0"


def test_invert_multigraded_via_betti_json(worked_file, tmp_path, capsys):
    rc, out, _ = run(capsys, "betti", worked_file, "--json")
    table_file = tmp_path / "table.json"
    table_file.write_text(json.dumps(json.loads(out)["output"]))
    rc, out, _ = run(capsys, "invert", str(table_file))
    assert rc == 0
    assert "j[0,0]=1 j[1,0]=2 j[1,1]=1 j[2,0]=1" in out


def test_invert_accepts_beta0_of_one(tmp_path, capsys):
    p = tmp_path / "table.json"
    for body in ({"n": 2, "multigraded": [[0, 0, 0, 1], [1, 2, 0, 1]]}, {"n": 2, "graded": [[0, 0, 1], [1, 2, 1]]}):
        p.write_text(json.dumps(body))
        rc, out, _ = run(capsys, "invert", str(p))
        assert rc == 0
        assert "j0=2 j1=0" in out


def test_invert_zeros(tmp_path, capsys):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": 3, "graded": []}))
    rc, out, _ = run(capsys, "invert", str(p))
    assert rc == 0
    assert out.strip() == "j0=1 j1=1 j2=1"


@pytest.mark.parametrize(
    "body, message",
    [
        ("[1, 2, 3]", "JSON object"),
        ('{"n": 3, "multigraded": [[1, "a", 1, 1]]}', "lists of 4 integers"),
        ('{"n": 3, "multigraded": [[1, 1, 1]]}', "lists of 4 integers"),
        ('{"n": 3, "graded": [[1, 2]]}', "lists of 3 integers"),
        ('{"n": 3, "graded": 5}', "lists of 3 integers"),
        ('{"n": "3", "graded": []}', "nonnegative integer"),
        ('{"graded": []}', 'neuron count missing: pass --n or include "n" in the file'),
        # the worked example's tables plus one entry off the linear strand
        (json.dumps({"n": 5, "multigraded": WORKED_MULTIGRADED + [[1, 3, 1, 1]]}), "off the linear strand"),
        (json.dumps({"n": 5, "multigraded": WORKED_MULTIGRADED + [[1, 0, 2, 1]]}), "off the linear strand"),
        (json.dumps({"n": 5, "multigraded": WORKED_MULTIGRADED + [[5, 6, 0, 1]]}), "off the linear strand"),
        (json.dumps({"n": 5, "multigraded": WORKED_MULTIGRADED + [[1, 3, -1, 1]]}), "off the linear strand"),
        ('{"n": 5, "graded": [[1, 2, 5], [2, 3, 6], [3, 4, 2], [5, 6, 1]]}', "off the linear strand"),
        # beta_0 of a quotient is 1; only an omitted entry stands for it
        ('{"n": 2, "multigraded": [[0, 0, 0, 7], [1, 2, 0, 1]]}', "multigraded entry (0,0,0) is 7"),
        ('{"n": 2, "graded": [[0, 0, -4], [1, 2, 1]]}', "graded entry (0,0) is -4"),
        # a negative count is refused by both routes, though this one's marginals (0, 2) look valid
        ('{"n": 2, "graded": [[1, 2, -1]]}', "negative Betti entry at (1, 2): -1"),
        ('{"n": 2, "multigraded": [[1, 2, 0, -1]]}', "negative Betti entry at (1, 2, 0): -1"),
    ],
)
def test_invert_rejects_malformed_tables(tmp_path, capsys, body, message):
    p = tmp_path / "table.json"
    p.write_text(body)
    rc, out, err = run(capsys, "invert", str(p))
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "key, rows, entry",
    [
        ("multigraded", [[0, 0, 0, 1], [1, 2, 0, 5], [1, 2, 0, 1]], "(1, 2, 0)"),
        ("graded", [[0, 0, 1], [1, 2, 5], [1, 2, 1]], "(1, 2)"),
    ],
)
def test_invert_refuses_a_repeated_entry(tmp_path, capsys, key, rows, entry):
    # either copy could have won silently, whichever order the file lists them in
    p = tmp_path / "table.json"
    for ordered in (rows, rows[::-1]):
        p.write_text(json.dumps({"n": 2, key: ordered}))
        rc, out, err = run(capsys, "invert", str(p))
        assert rc == 2 and out == ""
        assert err == f'error: "{key}" lists the entry {entry} twice\n'


def test_invert_refuses_deeply_nested_json(tmp_path, capsys):
    # the JSON decoder recurses once per bracket
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000 + "]" * 200_000)
    rc, out, err = run(capsys, "invert", str(p))
    assert rc == 2 and out == ""
    assert err == "error: the Betti table file nests too deeply to parse\n"


def _refuse_oracle(*args, **kwargs):
    raise AssertionError("the oracle must not run when --threads is rejected")


@pytest.mark.parametrize("threads", ["0", "-1", str(cli.MAX_THREADS + 1)])
def test_threads_out_of_range_rejected_before_any_work(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr(cli, "betti_table_oracle", _refuse_oracle)
    # the file does not exist: the check must come before the input is read
    missing = str(tmp_path / "missing.code")
    rc, out, err = run(capsys, "betti", missing, "--method", "oracle", "--threads", threads)
    assert rc == 2
    assert out == ""
    assert "--threads must be between 1 and" in err


def test_threads_at_cap_accepted(worked_file, capsys, monkeypatch):
    # the cap itself is valid; the sweep runs in this process so no pool is started
    real = cli.betti_table_oracle
    seen = []

    def single_process(ideal, threads=1):
        seen.append(threads)
        return real(ideal, threads=1)

    monkeypatch.setattr(cli, "betti_table_oracle", single_process)
    rc, _, _ = run(capsys, "betti", worked_file, "--method", "oracle", "--threads", str(cli.MAX_THREADS))
    assert rc == 0
    assert seen == [cli.MAX_THREADS]


def test_chordal_path(tmp_path, capsys):
    p = tmp_path / "path.graph"
    p.write_text("1-2\n2-3\n")
    rc, out, _ = run(capsys, "chordal", str(p))
    assert rc == 0
    assert "chordal" in out and "profile {0,1,1}" in out
    assert "all 4 orderings" in out


def test_chordal_mismatch_names_the_file_and_both_profiles(tmp_path, capsys, monkeypatch):
    p = tmp_path / "path.graph"
    p.write_text("1-2\n2-3\n3-4\n")
    graph = parse_graph(p.read_text())
    first = chordality(graph)
    drifted = next(o for o in all_elimination_orderings(graph) if o.order != first.order)
    real = EliminationOrdering.profile

    def drifting(self):
        profile = real(self)
        return profile if self.order == first.order else profile[:-1] + (profile[-1] + 1,)

    monkeypatch.setattr(EliminationOrdering, "profile", drifting)
    rc, out, err = run(capsys, "chordal", str(p))
    assert rc == 3 and out == ""
    assert err == (
        f"cross-check mismatch: elimination profiles differ on {p}: ordering {first.order}"
        f" has profile {real(first)}, ordering {drifted.order} has profile {drifting(drifted)}\n"
    )


def test_chordal_c4(tmp_path, capsys):
    p = tmp_path / "c4.graph"
    p.write_text("1-2\n2-3\n3-4\n1-4\n")
    rc, out, _ = run(capsys, "chordal", str(p))
    assert rc == 0
    assert out.startswith("not chordal")


def test_chordal_k4(tmp_path, capsys):
    p = tmp_path / "k4.graph"
    p.write_text("1-2\n1-3\n1-4\n2-3\n2-4\n3-4\n")
    rc, out, _ = run(capsys, "chordal", str(p))
    assert rc == 0
    assert "profile {0,1,2,3}" in out


def test_generate_deterministic(capsys):
    rc, first, _ = run(capsys, "generate", "--n", "5", "--seed", "7")
    rc2, second, _ = run(capsys, "generate", "--n", "5", "--seed", "7")
    assert rc == rc2 == 0
    assert first == second
    assert first.startswith("n=5")


def test_generate_accepted_by_pierced(tmp_path, capsys):
    rc, out, _ = run(capsys, "generate", "--n", "5", "--seed", "7")
    p = tmp_path / "gen.code"
    p.write_text(out)
    rc, out, _ = run(capsys, "pierced", str(p), "--certify")
    assert rc == 0
    assert out.startswith("inductively pierced")


def test_generate_single_neuron(capsys):
    rc, out, _ = run(capsys, "generate", "--n", "1", "--seed", "0")
    assert rc == 0
    assert out.splitlines()[:3] == ["n=1", "0", "1"]


def test_generate_replays_steps(tmp_path, worked_file, capsys):
    steps = tmp_path / "steps.txt"
    steps.write_text(
        "step 1: sigma={} tau={} k=0 l=0\n"
        "step 2: sigma={} tau={1} k=1 l=0\n"
        "step 3: sigma={} tau={2} k=1 l=0\n"
        "step 4: sigma={} tau={1,2} k=2 l=0\n"
        "step 5: sigma={3} tau={2,3} k=1 l=1\n"
    )
    rc, out, _ = run(capsys, "generate", "--steps", str(steps))
    assert rc == 0
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#")) + "\n"
    assert body == "n=5\n" + WORKED


def test_generate_replays_steps_without_their_k_and_l(tmp_path, capsys):
    bare, full = tmp_path / "bare.steps", tmp_path / "full.steps"
    bare.write_text("step 1: sigma={} tau={}\nstep 2: sigma={} tau={1}\n")
    full.write_text("step 1: sigma={} tau={} k=0 l=0\nstep 2: sigma={} tau={1} k=1 l=0\n")
    assert run(capsys, "generate", "--steps", str(bare)) == run(capsys, "generate", "--steps", str(full))


@pytest.mark.parametrize(
    "line, message",
    [
        ("step 2: sigma={} tau={1} k=9 l=4 whatever", "not a piercing step"),
        ("step 2: sigma={} tau={1} k=9 l=4", "step 2 has k=1 l=0, not k=9 l=4"),
        ("step 2: sigma={} tau={1} k=1 l=1", "step 2 has k=1 l=0, not k=1 l=1"),
        ("step 2: sigma={} tau={1} k=1 l=0 whatever", "not a piercing step"),
        ("step 2: sigma={} tau={1} k=1", "not a piercing step"),
        ("step 2: sigma={} tau={1} whatever", "not a piercing step"),
    ],
)
def test_generate_refuses_a_step_with_a_wrong_k_and_l_or_trailing_text(tmp_path, capsys, line, message):
    steps = tmp_path / "steps.txt"
    steps.write_text(f"step 1: sigma={{}} tau={{}} k=0 l=0\n{line}\n")
    rc, out, err = run(capsys, "generate", "--steps", str(steps))
    assert rc == 2 and out == ""
    assert "line 2: " in err and message in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("step 2: sigma={} tau={}\n", "the steps place neurons [2], not each of 1..1 once"),
        ("step 1: sigma={} tau={}\nstep 1: sigma={} tau={}\n", "the steps place neurons [1, 1], not each of 1..2 once"),
        ("n=3\nstep 1: sigma={} tau={}\nstep 2: sigma={} tau={1}\n", "the steps place neurons [1, 2], not each of 1..3 once"),
        ("n=1\n", "the steps place neurons [], not each of 1..1 once"),
    ],
)
def test_generate_refuses_steps_that_do_not_place_each_neuron_once(tmp_path, capsys, monkeypatch, body, message):
    monkeypatch.setattr(cli, "build_code", _refuse("build_code"))
    steps = tmp_path / "steps.txt"
    steps.write_text(body)
    rc, out, err = run(capsys, "generate", "--steps", str(steps))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_generate_replays_steps_out_of_label_order_under_a_header(tmp_path, capsys):
    steps = tmp_path / "steps.txt"
    steps.write_text("n=2\nstep 2: sigma={} tau={}\nstep 1: sigma={} tau={2}\n")
    rc, out, _ = run(capsys, "generate", "--steps", str(steps))
    assert rc == 0 and out.splitlines()[:5] == ["n=2", "0", "1", "2", "1 2"]


@pytest.mark.parametrize(
    "options", [["--n", "3", "--seed", "9", "--kmax", "0"], ["--n", "5"], ["--kmax", "1"], ["--seed", "0"]]
)
def test_generate_refuses_steps_with_sampling_options(capsys, monkeypatch, options):
    monkeypatch.setattr(cli, "_read", _refuse("_read"))
    rc, out, err = run(capsys, "generate", "--steps", str(GOLDEN_INPUTS / "demo.steps"), *options)
    assert rc == 2 and out == ""
    assert err == "error: --steps takes none of --n, --kmax and --seed\n"


def test_generate_seed_defaults_to_0(capsys):
    assert run(capsys, "generate", "--n", "6") == run(capsys, "generate", "--n", "6", "--seed", "0")


def test_generate_refuses_negative_kmax(capsys):
    rc, out, err = run(capsys, "generate", "--n", "3", "--kmax", "-1")
    assert rc == 2 and out == ""
    assert err == "error: kmax must be at least 0, got -1\n"


def test_generate_refuses_a_negative_seed(capsys, monkeypatch):
    # refused before any interval is listed
    monkeypatch.setattr(piercing, "code_intervals", None)
    rc, out, err = run(capsys, "generate", "--n", "6", "--seed", "-7")
    assert rc == 2 and out == ""
    assert err == "error: seed must be at least 0, got -7\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        (["cf"], DEMO),
        (["polarize"], DEMO),
        (["graph"], DEMO),
        (["pierced"], DEMO),
        (["betti"], DEMO),
        (["betti", "--ideal"], GOLDEN_INPUTS / "demo.ideal"),
        (["invert"], GOLDEN_INPUTS / "graded.json"),
        (["chordal"], GOLDEN_INPUTS / "chordal.graph"),
        (["generate", "--steps"], GOLDEN_INPUTS / "demo.steps"),
        (["generate", "--n", "5"], None),
        (["validate"], DEMO),
    ],
)
def test_json_report_names_command_and_input_digest(capsys, argv, path):
    rc, out, _ = run(capsys, *argv, *([str(path)] if path else []), "--json")
    assert rc == 0
    report = json.loads(out)
    assert sorted(report) == ["command", "input_digest", "output", "warnings"]
    assert report["command"] == argv[0]
    assert report["input_digest"] == (hashlib.sha256(path.read_bytes()).hexdigest() if path else None)


@pytest.mark.parametrize("command", ["cf", "polarize", "graph", "pierced", "betti"])
def test_strip_silent_has_help_on_every_code_command(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "drop silent neurons first" in capsys.readouterr().out


def test_validate(tmp_path, capsys):
    p = tmp_path / "dirty.code"
    p.write_text("n=3\n0\n1 2\n")
    rc, out, _ = run(capsys, "validate", str(p))
    assert rc == 0
    assert "silent neurons: 3" in out and "(1,2)" in out


def test_betti_zero_ideal_code(tmp_path, capsys):
    p = tmp_path / "full.code"
    p.write_text("0\n1\n2\n1 2\n")
    rc, out, _ = run(capsys, "betti", str(p), "--method", "all", "--json")
    assert rc == 0
    assert json.loads(out)["output"]["total"] == [1]


def test_strip_silent_flag(tmp_path, capsys):
    p = tmp_path / "gappy.code"
    p.write_text("n=3\n0\n1\n3\n1 3\n")
    rc, _, err = run(capsys, "pierced", str(p))
    assert rc == 2 and "silent" in err
    rc, out, _ = run(capsys, "pierced", str(p), "--strip-silent")
    assert rc == 0 and out.startswith("inductively pierced")
    rc, out, _ = run(capsys, "cf", str(p), "--strip-silent", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert any("stripped silent" in w for w in payload["warnings"])


def test_json_outputs_are_byte_stable(worked_file, capsys):
    outs = set()
    for _ in range(2):
        rc, out, _ = run(capsys, "betti", worked_file, "--json")
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


# quotes, backslashes, control characters, non-ASCII and non-BMP characters, besides any other
report_text = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | report_text,
    lambda inner: st.lists(inner)
    | st.dictionaries(report_text, inner)
    | st.lists(st.integers() | st.booleans())
    | st.lists(st.lists(st.integers() | st.booleans())),
    max_leaves=20,
)


@settings(max_examples=200)
@given(report_values, st.lists(report_text, max_size=3))
def test_report_writer_matches_json_dumps(value, warnings):
    assert cli._json(value, "") == json.dumps(value, indent=2, sort_keys=True)
    report = cli.RunReport("cf", "0" * 64, {"value": value}, warnings)
    assert report.to_json() == json.dumps(vars(report), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), [0, 1.0], {"a": [(1,)]}, {1: 2}, {"a": {None: 0}}])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value, "")


HUGE = 10**12


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} must not run on refused input")

    return refuse


# each case names the first stage that would do the work the guard prevents
@pytest.mark.parametrize(
    "argv, body, stage",
    [
        (["cf"], f"0\n1 {HUGE}\n", "canonical_form"),
        (["betti", "--method", "oracle", "--ideal"], f"x1*y{HUGE}\n", "betti_table_oracle"),
        (["chordal"], f"1-{HUGE}\n", "chordality"),
        (["chordal"], "n=2000000\n1-2\n", "chordality"),
        (["generate", "--steps"], f"step 1: sigma={{}} tau={{}} k=0 l=0\nstep 2: sigma={{}} tau={{{HUGE}}} k=1 l=0\n",
         "build_code"),
        (["generate", "--steps"], f"step {HUGE}: sigma={{}} tau={{}} k=0 l=0\n", "build_code"),
    ],
)
def test_huge_index_or_header_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, body, stage):
    monkeypatch.setattr(cli, stage, _refuse(stage))
    p = tmp_path / "input.txt"
    p.write_text(body)
    rc, out, err = run(capsys, *argv, str(p))
    assert rc == 2
    assert out == ""
    assert "exceeds the cap" in err or "outside 0.." in err


@pytest.mark.parametrize(
    "argv, body",
    [
        (["cf"], "n=-3\n1\n"),
        (["betti", "--method", "oracle", "--ideal"], "n=-3\nx1\n"),
        (["chordal"], "n=-3\n1-2\n"),
        (["generate", "--steps"], "n=-3\nstep 1: sigma={} tau={} k=0 l=0\n"),
        (["cf"], "n=17\n1\n"),
        (["betti", "--method", "oracle", "--ideal"], "n=65\nx1\n"),
        (["chordal"], "n=65\n1-2\n"),
        (["generate", "--steps"], "n=17\nstep 1: sigma={} tau={} k=0 l=0\n"),
    ],
)
def test_header_out_of_range_exits_2_in_every_format(tmp_path, capsys, argv, body):
    p = tmp_path / "input.txt"
    p.write_text(body)
    rc, out, err = run(capsys, *argv, str(p))
    assert rc == 2 and out == ""
    assert "line 1: n=" in err and "is outside 0.." in err


def test_graph_and_ideal_accept_indices_up_to_the_shared_cap(tmp_path, capsys):
    g = tmp_path / "wide.graph"
    g.write_text("1-64\n")
    rc, out, _ = run(capsys, "chordal", str(g), "--json")
    assert rc == 0 and json.loads(out)["output"]["chordal"] is True


def test_oracle_guard_exits_2_for_an_ideal(tmp_path, capsys):
    p = tmp_path / "wide.ideal"
    p.write_text("".join(f"x{2 * i - 1}*x{2 * i}\n" for i in range(1, 12)))  # 22 variables
    rc, out, err = run(capsys, "betti", "--ideal", str(p), "--method", "oracle")
    assert rc == 2 and out == ""
    assert "22 variables exceed the cap of 20" in err


def test_oracle_guard_exits_2_under_method_all(tmp_path, capsys):
    rc, body, _ = run(capsys, "generate", "--n", "14", "--seed", "3")
    assert rc == 0
    p = tmp_path / "n14.code"
    p.write_text(body)
    rc, out, err = run(capsys, "betti", str(p), "--method", "all")
    assert rc == 2 and out == ""
    assert "21 variables exceed the cap of 20" in err


def test_row_bits_guard_exits_2_for_an_ideal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_homology_dims", _refuse("_homology_dims"))
    p = tmp_path / "simplex.ideal"
    p.write_text("*".join(f"x{i}" for i in range(1, 18)) + "\n")  # the boundary of a 16-simplex
    rc, out, err = run(capsys, "betti", "--ideal", str(p))
    assert rc == 2 and out == ""
    assert "bits exceed the cap of 1073741824" in err


@pytest.mark.parametrize("certify", [[], ["--certify"]])
def test_rejected_order_is_a_result(capsys, certify):
    rc, out, err = run(capsys, "pierced", str(DEMO), "--order", "5,4,3,2,1", "--json", *certify)
    assert rc == 0 and err == ""
    assert json.loads(out)["output"] == {"pierced": True, "order_accepted": False}


def test_invert_caps_n_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "invert_multigraded", _refuse("invert_multigraded"))
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": 120, "multigraded": []}))
    rc, out, err = run(capsys, "invert", str(p))
    assert rc == 2 and out == ""
    assert f"up to {cli.MAX_NEURONS}" in err


def test_cross_check_mismatch_exits_3(worked_file, capsys, monkeypatch):
    real = cli.betti_recursive

    def off_by_one(order):
        table = real(order)
        return BettiTable.from_dict(table.n, {**table.as_dict, (0, 0, 0): 2})

    monkeypatch.setattr(cli, "betti_recursive", off_by_one)
    rc, out, err = run(capsys, "betti", worked_file, "--method", "all")
    assert rc == 3 and out == ""
    assert err.startswith("cross-check mismatch: formula and recursion tables differ")
    # the report names the file and the first entry that differs, with both counts
    assert worked_file in err
    assert "(0, 0, 0): formula 1, recursion 2" in err


def _script(name):
    """The script scripts/<name>.py, loaded in-process as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drifting_recursion(monkeypatch):
    """Patch the CLI's recursion to count 2 at (0, 0, 0), where every other route counts 1."""
    real = cli.betti_recursive

    def drifting(order):
        table = real(order)
        return BettiTable.from_dict(table.n, {**table.as_dict, (0, 0, 0): 2})

    monkeypatch.setattr(cli, "betti_recursive", drifting)


def test_agreement_sweep_reports_through_the_betti_check(capsys, monkeypatch):
    sweep = _script("triple_agreement_sweep")
    _drifting_recursion(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["triple_agreement_sweep.py", "--max-n", "2", "--random", "0"])
    assert sweep.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    # the report of `betti`'s check, then the code it was found on
    head, tables, _, code = err.split("\n", 3)
    assert head == (
        "cross-check mismatch: formula and recursion tables differ on the code below;"
        " first at (w, u, v) = (0, 0, 0): formula 1, recursion 2"
    )
    assert tables.startswith("formula: {")
    assert code.startswith("n=")


def test_worked_example_reports_through_the_betti_check(capsys, monkeypatch):
    walk = _script("reproduce_worked_example")
    _drifting_recursion(monkeypatch)
    assert walk.main() == 1
    out, err = capsys.readouterr()
    # stdout stops before the agreement line
    assert out.endswith("order 1,4,2,3,5 accepted; same profile: True\n")
    head, tables, rest = err.split("\n", 2)
    assert head == (
        f"cross-check mismatch: formula and recursion tables differ on {DEMO};"
        " first at (w, u, v) = (0, 0, 0): formula 1, recursion 2"
    )
    assert "data/demo_five_neurons.code" in head
    assert tables.startswith("formula: {") and rest.startswith("recursion: {")


def test_worked_example_refused_order_exits_1(capsys, monkeypatch):
    walk = _script("reproduce_worked_example")
    monkeypatch.setattr(walk, "steps_for_order", lambda code, order: None)
    assert walk.main() == 1
    out, err = capsys.readouterr()
    assert "accepted" not in out
    assert err.startswith(f"cross-check mismatch: order (1, 2, 3, 4, 5) of {DEMO} is not a piercing order;")
    assert err.count("\n") == 1


def test_worked_example_changed_profile_exits_1(capsys, monkeypatch):
    walk = _script("reproduce_worked_example")
    real = walk.steps_for_order

    def short(code, order):
        # the last step dropped, so the profile loses a count
        found = real(code, order)
        return PiercingOrder(found.steps[:-1])

    monkeypatch.setattr(walk, "steps_for_order", short)
    assert walk.main() == 1
    out, err = capsys.readouterr()
    assert "accepted" not in out
    assert err.startswith(f"cross-check mismatch: order (1, 2, 3, 4, 5) of {DEMO} has profile j[")
    assert "; the search's order (" in err


def test_invariance_scan_reports_through_the_chordal_check(capsys, monkeypatch):
    scan = _script("chordal_invariance_scan")
    real = EliminationOrdering.profile

    def drifting(self):
        profile = real(self)
        return profile if list(self.order) == sorted(self.order) else profile[:-1] + (profile[-1] + 1,)

    monkeypatch.setattr(EliminationOrdering, "profile", drifting)
    monkeypatch.setattr(sys, "argv", ["chordal_invariance_scan.py", "--exhaustive-n", "3", "--sample-n", "3"])
    assert scan.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    # the first graph with two orderings: two vertices, no edge
    assert err.startswith("cross-check mismatch: elimination profiles differ on n=2 edges=[]: ordering (")
    assert err.count("has profile") == 2


def test_invariance_scan_checks_each_witness_is_a_chordless_cycle(capsys, monkeypatch):
    scan = _script("chordal_invariance_scan")
    real = scan.chordless_cycle_witness

    def chorded(g):
        # a 4-cycle a-b-c-d with the chord a-c where g has one, else the real witness
        for cycle in permutations(range(1, g.n + 1), 4):
            a, b, c, d = cycle
            if all(g.has_edge(*e) for e in ((a, b), (b, c), (c, d), (d, a), (a, c))):
                return cycle
        return real(g)

    monkeypatch.setattr(scan, "chordless_cycle_witness", chorded)
    monkeypatch.setattr(sys, "argv", ["chordal_invariance_scan.py", "--exhaustive-n", "5", "--sample-n", "5"])
    assert scan.main() == 1
    out, err = capsys.readouterr()
    # every non-chordal graph with n <= 4 is a four-cycle and passes with its real witness
    assert out == ""
    assert err == (
        "cross-check mismatch: n=5 edges=[(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]"
        " is not chordal, but its witness (3, 1, 4, 2) is no chordless cycle\n"
    )


def test_pierced_mismatch_names_the_file(worked_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_inductively_pierced", lambda code: None)
    rc, out, err = run(capsys, "pierced", worked_file, "--certify")
    assert rc == 3 and out == ""
    assert err.startswith("cross-check mismatch: definitional verdict False vs quadratic+chordal verdict True")
    assert worked_file in err


def test_max_n_option_is_gone(worked_file, capsys):
    # removed options, and options a subcommand does not read, are usage errors
    for argv in (
        ["cf", worked_file, "--max-n", "1000000"],
        ["cf", worked_file, "--threads", "2"],
        ["pierced", worked_file, "--seed", "1"],
        ["validate", worked_file, "--threads", "1"],
        ["chordal", worked_file, "--enumerate-up-to", "3"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert argv[2] in capsys.readouterr().err


@pytest.fixture
def parses(monkeypatch):
    """(parser, namespace) of every top-level parse from here on."""
    seen = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        namespace = real(self, *args, **kwargs)
        seen.append((self, namespace))
        return namespace

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    return seen


def test_main_calls_share_one_parser(worked_file, capsys, parses):
    run(capsys, "cf", worked_file)
    run(capsys, "validate", worked_file)
    assert len(parses) == 2
    assert parses[0][0] is parses[1][0] is cli.build_parser()


def test_options_of_one_call_do_not_leak_into_the_next(worked_file, capsys, monkeypatch, parses):
    real = cli.betti_table_oracle
    threads_seen = []

    def single_process(ideal, threads=1):
        threads_seen.append(threads)
        return real(ideal, threads=1)

    monkeypatch.setattr(cli, "betti_table_oracle", single_process)
    rc, _, _ = run(capsys, "betti", worked_file, "--method", "oracle", "--threads", "2")
    assert rc == 0
    rc, out, _ = run(capsys, "betti", worked_file, "--json")
    assert rc == 0
    assert threads_seen == [2, 1]
    assert json.loads(out)["output"]["methods"] == ["formula", "oracle", "recursion"]
    assert parses[1][1].method is None and parses[1][1].threads == 1

    rc, with_order, _ = run(capsys, "pierced", worked_file, "--order", "1,4,2,3,5")
    assert rc == 0 and "order 1,4,2,3,5" in with_order
    rc, plain, _ = run(capsys, "pierced", worked_file)
    assert rc == 0 and plain != with_order
    assert parses[3][1].order is None and parses[3][1].certify is False


@pytest.mark.parametrize(
    "bad",
    [
        ["betti", "CODEFILE", "--threads", "x"],
        ["pierced", "CODEFILE", "--bogus"],
        ["bogus", "CODEFILE"],
        [],
    ],
)
def test_usage_error_leaves_the_next_call_working(worked_file, capsys, bad):
    rc, before, _ = run(capsys, "pierced", worked_file, "--certify")
    assert rc == 0
    with pytest.raises(SystemExit) as exc:
        main([worked_file if tok == "CODEFILE" else tok for tok in bad])
    assert exc.value.code == 2
    assert "usage: codebetti" in capsys.readouterr().err
    assert run(capsys, "pierced", worked_file, "--certify") == (0, before, "")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--method", "all"], "only --method oracle"),
        (["--method", "formula"], "only --method oracle"),
        (["--method", "recursion"], "only --method oracle"),
        (["--strip-silent"], "nor --strip-silent"),
        (["CODEFILE"], "neither a code file"),
    ],
)
def test_betti_ideal_rejects_other_inputs_before_reading(tmp_path, capsys, extra, message):
    # the paths do not exist: the check must come before any file is read
    extra = [str(tmp_path / "missing.code") if e == "CODEFILE" else e for e in extra]
    rc, out, err = run(capsys, "betti", "--ideal", str(tmp_path / "missing.ideal"), *extra)
    assert rc == 2 and out == ""
    assert message in err


# indices: valid ones mixed with 0, negative, huge and garbage tokens
st_index = st.one_of(st.integers(1, 6).map(str), st.sampled_from(["0", "-2", str(HUGE), "x", ""]))
st_csv = st.lists(st_index, max_size=3).map(",".join)
st_code_line = st.lists(st_index, min_size=1, max_size=4).map(" ".join)
st_extra_line = st.sampled_from(["", "# note", "n=0", "n=3", "n=6", "n=-3", f"n={HUGE}", "n=x", "0", "?"])


def st_lines(line):
    return st.lists(st.one_of(line, st_extra_line), max_size=8).map("\n".join)


st_count = st.one_of(st.integers(-2, 6), st.sampled_from([17, 120, HUGE, "3", None]))
st_row = st.lists(st.one_of(st.integers(-2, 6), st.just(HUGE)), min_size=2, max_size=5)
# code indices stay at 6 or below, so the oracle sees at most 12 variables
FUZZ = {
    "cf": (["cf"], st_lines(st_code_line)),
    "validate": (["validate"], st_lines(st_code_line)),
    "graph": (["graph"], st_lines(st_code_line)),
    "polarize": (["polarize"], st_lines(st_code_line)),
    "pierced": (["pierced", "--certify"], st_lines(st_code_line)),
    "betti-all": (["betti", "--method", "all"], st_lines(st_code_line)),
    "chordal": (["chordal"], st_lines(st.tuples(st_index, st_index).map("-".join))),
    "generate": (
        ["generate", "--steps"],
        st_lines(st.tuples(st_index, st_csv, st_csv).map(lambda t: f"step {t[0]}: sigma={{{t[1]}}} tau={{{t[2]}}}")),
    ),
    "betti": (
        ["betti", "--method", "oracle", "--ideal"],
        st_lines(st.lists(st.tuples(st.sampled_from("xyz"), st_index).map("".join), min_size=1, max_size=3).map(
            "*".join
        )),
    ),
    "invert": (
        ["invert"],
        st.one_of(
            st.fixed_dictionaries(
                {"n": st_count},
                optional={"graded": st.lists(st_row, max_size=4), "multigraded": st.lists(st_row, max_size=4)},
            ).map(json.dumps),
            st.sampled_from(["", "[1, 2]", "{", "null"]),
        ),
    ),
}


@pytest.mark.parametrize("command", sorted(FUZZ))
def test_fuzz_cli_never_raises(tmp_path_factory, command):
    argv, bodies = FUZZ[command]
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"

    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def check(body):
        path.write_text(body)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*argv, str(path)])
        assert rc in (0, 2, 3)

    check()


# each subcommand's flags; --threads never reaches 64 and generate --n stays at 8 or
# below, so no run starts a large pool or a long sweep
st_small = st.sampled_from(["-1", "0", "1", "3", "x"])
st_threads = st.sampled_from(["-1", "0", "1", "2", "65", "x"])
CODE_FLAGS = [("--json", None), ("--strip-silent", None)]
FLAGS = {
    "cf": CODE_FLAGS,
    "polarize": CODE_FLAGS,
    "graph": CODE_FLAGS + [("--dot", None)],
    "pierced": CODE_FLAGS + [
        ("--certify", None),
        ("--order", st.sampled_from(["1,2,3,4,5", "5,4,3,2,1", "1,2", "x", ""])),
    ],
    "betti": CODE_FLAGS + [
        ("--ideal", "PATH"),
        ("--method", st.sampled_from(["formula", "recursion", "oracle", "all", "x"])),
        ("--threads", st_threads),
    ],
    "invert": [("--json", None), ("--n", st.sampled_from(["-1", "0", "3", "5", "17", "x"]))],
    "chordal": [("--json", None)],
    "generate": [
        ("--json", None),
        ("--n", st.sampled_from(["-1", "0", "1", "5", "8", "x"])),
        ("--kmax", st_small),
        ("--seed", st_small),
        ("--steps", "PATH"),
    ],
    "validate": [("--json", None)],
}
# removed flags and flags that only one subcommand reads, tried on every subcommand
FOREIGN_FLAGS = [("--threads", st_threads), ("--seed", st_small), ("--enumerate-up-to", st_small),
                 ("--max-n", st_small)]
FLAG_FILES = {
    "code": DEMO.read_text(),
    "cycle": (DATA / "four_cycle.code").read_text(),
    "ideal": "x1*x2\nx2*y3\n",
    "graph": "1-2\n2-3\n3-1\n",
    "steps": "step 1: sigma={} tau={} k=0 l=0\nstep 2: sigma={} tau={1} k=1 l=0\n",
    "table": json.dumps({"n": 2, "graded": [[0, 0, 1], [1, 2, 1]]}),
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_fuzz_cli_flags(tmp_path_factory, command):
    folder = tmp_path_factory.mktemp("flags")
    for name, body in FLAG_FILES.items():
        (folder / name).write_text(body)
    st_path = st.sampled_from([*FLAG_FILES, "missing"]).map(lambda name: str(folder / name))

    def st_flags(vocabulary, max_size):
        def st_flag(flag, values):
            if values is None:
                return st.just([flag])
            return (st_path if values == "PATH" else values).map(lambda v: [flag, v])

        return st.lists(st.sampled_from(vocabulary).flatmap(lambda fv: st_flag(*fv)), max_size=max_size)

    # mostly zero or one positional and the subcommand's own flags, so most runs get past argparse
    st_positionals = st.one_of(st.just([]), st_path.map(lambda p: [p]), st.lists(st_path, max_size=2))

    @settings(max_examples=60, deadline=None)
    @given(st_positionals, st_flags(FLAGS[command], 4), st.one_of(st.just([]), st_flags(FOREIGN_FLAGS, 1)))
    def check(positionals, flags, foreign):
        argv = [command, *positionals, *(tok for flag in flags + foreign for tok in flag)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert rc in (0, 2, 3), argv

    check()


def test_readme_option_table_matches_the_parser():
    readme = (DATA.parent / "README.md").read_text()
    table = readme[readme.index("| command | options besides `--json` |"):].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines()[2:]:
        commands, options = row.strip("|").split("|")
        for command in re.findall(r"`(\w+)`", commands):
            documented[command] = set(re.findall(r"`(--[\w-]+)`", options))
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in p._actions for opt in action.option_strings if opt.startswith("--")} - {"--json", "--help"}
        for name, p in subcommands.choices.items()
    }
    assert documented == parsed

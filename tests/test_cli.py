import json

import pytest

from codebetti import cli
from codebetti.cli import main
from conftest import WORKED_LINES

WORKED = "\n".join(WORKED_LINES) + "\n"

FOUR_CYCLE = "0\n1\n2\n3\n4\n1 2\n2 3\n3 4\n1 4\n"


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
    assert out.strip() == "x1*x3, x3*x4, x5*y3, x1*x5, x4*x5"


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
    ],
)
def test_invert_rejects_malformed_tables(tmp_path, capsys, body, message):
    p = tmp_path / "table.json"
    p.write_text(body)
    rc, out, err = run(capsys, "invert", str(p))
    assert rc == 2
    assert out == ""
    assert message in err


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

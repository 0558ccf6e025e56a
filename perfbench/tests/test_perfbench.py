"""Tests of the benchmark itself: inputs, reference checks, tracing and a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import WORKLOADS, build, load_library, plan  # noqa: E402
from reference import REF_S, at_reference_speed  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

TINY_RUNGS = {
    "pierced-chain": ((5, None), (6, None)),
    "betti-all": ((6, None),),
    "general-oracle": ((4, 6), (5, 8)),
}


def generate(lib, workload, seed, workdir):
    return build(lib, workload, plan(lib, workload, seed), workdir)


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], rungs=TINY_RUNGS[name], pool_rounds=2, trace_rounds=1)


@pytest.fixture(scope="module")
def lib():
    return load_library()


def test_benchmark_json_names_these_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _words(rounds):
    return [[sorted(case.code.words) for case in cases] for cases in rounds]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(lib, tmp_path, name):
    first = generate(lib, tiny(name), 5, tmp_path / "a")
    again = generate(lib, tiny(name), 5, tmp_path / "b")
    other = generate(lib, tiny(name), 6, tmp_path / "c")
    assert _words(first) == _words(again)
    assert [c.path.read_text() for r in first for c in r] == [c.path.read_text() for r in again for c in r]
    assert _words(first) != _words(other)
    if name == "general-oracle":
        assert all(lib.validate_code(c.code).clean for r in first for c in r)


def test_betti_all_rungs_hold_their_band(lib, tmp_path):
    band_rungs = ((8, (11, (10, 14), (200, 2000))),)
    workload = dataclasses.replace(WORKLOADS["betti-all"], rungs=band_rungs, pool_rounds=3)
    for cases in generate(lib, workload, 2, tmp_path):
        gens = checks.quadratic_gens(cases[0].code)
        assert 10 <= len(cases[0].code.words) <= 14
        assert 200 <= checks.lattice_size(gens) <= 2000
        assert len({v for g in gens for v in range(24) if g >> v & 1}) == 11


def test_lattice_size_stops_past_its_limit(lib):
    gens = checks.quadratic_gens(lib.random_pierced_code(8, seed=4)[1])
    full = checks.lattice_size(gens)
    assert checks.lattice_size(gens, limit=full) == full
    assert full - 1 < checks.lattice_size(gens, limit=full - 1) <= full
    assert 10 < checks.lattice_size(gens, limit=10) < full


def test_setup_seconds_rebuilds_the_same_files_in_fresh_interpreters(lib, tmp_path):
    workload = tiny("betti-all")
    drawn = plan(lib, workload, 7)
    rounds = build(lib, workload, drawn, tmp_path / "here")
    (tmp_path / "fresh").mkdir()
    refs = []
    assert run.setup_seconds(workload, drawn, tmp_path / "fresh", refs) > 0
    assert len(refs) == run.SETUP_REPEATS
    here = {c.path.name: c.path.read_text() for r in rounds for c in r}
    fresh = {p.name: p.read_text() for p in (tmp_path / "fresh").glob("*.code")}
    assert fresh == here


def _outputs(lib, workload, case):
    return [run.call(argv) for argv in case.argvs(workload)]


def _corrupt(result, edit):
    rc, stdout = result
    report = json.loads(stdout)
    edit(report["output"])
    return rc, json.dumps(report)


def _bump_table(out):
    w, u, v, c = out["multigraded"][-1]
    out["multigraded"][-1] = [w, u, v, c + 1]


def _bump_profile(out):
    k, l, c = out["jkl"][0]
    out["jkl"][0] = [k, l, c + 1]


@pytest.mark.parametrize("name, call_index, edit", [
    ("pierced-chain", 0, _bump_profile),
    ("pierced-chain", 1, _bump_table),
    ("betti-all", 0, _bump_table),
    ("general-oracle", 1, _bump_table),
])
def test_checkers_reject_a_corrupted_table_or_profile(lib, tmp_path, name, call_index, edit):
    workload = tiny(name)
    case = generate(lib, workload, 3, tmp_path)[0][-1]
    results = _outputs(lib, workload, case)
    assert checks.check_case(lib, workload, case, results)[0] == [None] * len(results)
    results[call_index] = _corrupt(results[call_index], edit)
    errors = checks.check_case(lib, workload, case, results)[0]
    assert errors[call_index] is not None
    failed_exit = list(results)
    failed_exit[call_index] = (3, "")
    assert checks.check_case(lib, workload, case, failed_exit)[0][call_index] == "exit code 3"


def test_general_verdict_check_rejects_wrong_generator_degrees(lib, tmp_path):
    workload = tiny("general-oracle")
    for case in itertools.chain.from_iterable(generate(lib, workload, 4, tmp_path)):
        results = _outputs(lib, workload, case)
        if not json.loads(results[0][1])["output"]["pierced"]:
            break
    else:
        pytest.skip("every tiny general code came out pierced")

    def edit(out):
        out["cf_degrees"][0] += 1

    results[0] = _corrupt(results[0], edit)
    assert checks.check_case(lib, workload, case, results)[0][0] is not None


def _brute_faces_on_used(gens):
    used = 0
    for g in gens:
        used |= g
    bits = [1 << i for i in range(used.bit_length()) if used >> i & 1]
    count = 0
    for r in range(len(bits) + 1):
        for combo in itertools.combinations(bits, r):
            face = sum(combo)
            count += not any(g & ~face == 0 for g in gens)
    return count


def test_own_enumerations_agree_with_the_library(lib):
    for n, seed in [(5, 1), (6, 2), (7, 3), (8, 4)]:
        order, code = lib.random_pierced_code(n, seed=seed)
        ideal = lib.polarized_ideal(lib.canonical_form(code), n)
        lib_gens = sorted(g.support_mask(n) for g in ideal.gens)
        gens = checks.quadratic_gens(code)
        assert sorted(gens) == lib_gens
        faces = checks.sr_faces(code)
        assert sorted(checks.minimal_nonfaces(faces, 2 * n)) == lib_gens
        assert checks.independent_sets(gens) == checks.face_count_on_used(faces, gens)
        assert checks.independent_sets(gens) == _brute_faces_on_used(gens)
        table = lib.betti_table_oracle(ideal)
        assert checks.alternating_sums(table.entries) == checks.k_polynomial(faces, n)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_has_no_failures(lib, tmp_path, name):
    workload = tiny(name)
    rounds = generate(lib, workload, 1, tmp_path)
    tally = run.Tally()
    refs = []
    end_to_end = dict(run.measure(lib, workload, rounds, 0.1, tally, refs), setup_s=0.1)
    assert set(end_to_end) == set(run.declared_metrics(trace=False))
    assert refs and all(r > 0 for r in refs)
    per_layer = run.measure_traced(lib, workload, rounds, tally, tmp_path / "spans.jsonl")
    assert set(per_layer) == set(run.declared_metrics(trace=True))
    assert tally.attempted > 0 and tally.failed == 0
    assert per_layer["cli.calls"] == len(workload.calls) * len(workload.rungs)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"cli.main", "pseudomonomials.canonical_form"}


def test_reference_speed_scales_times_and_rates_by_the_host_speed():
    raw = {"codes_per_s": 4.0, "code_s_p50": 0.2, "peak_rss_mb": 24.0, "setup_s": 0.1}
    assert at_reference_speed(raw, [REF_S] * 3) == raw
    # a host at half speed: times read twice as long and rates half as high
    slow = {"codes_per_s": 2.0, "code_s_p50": 0.4, "peak_rss_mb": 24.0, "setup_s": 0.2}
    scaled = at_reference_speed(slow, [2 * REF_S, 2 * REF_S, 9.0])
    assert scaled == pytest.approx(raw)



def test_tracer_restores_every_binding(lib):
    before = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("codebetti")}
    tracer = Tracer()
    with tracer.installed():
        assert sys.modules["codebetti.cli"].main is not before["codebetti.cli"]["main"]
    for module_name, attr, _, _ in TRACED:
        assert getattr(sys.modules[module_name], attr) is before[module_name][attr]
    assert all(vars(sys.modules[n]).get(k) is v for n, d in before.items() for k, v in d.items())


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pierced-chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

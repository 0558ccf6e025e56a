#!/usr/bin/env python3
"""Closed-loop benchmark of the codebetti CLI on seeded code files.

    python3 perfbench/run.py --workload pierced-chain --seed 1 --seconds 30 --trace 0

One client calls ``codebetti.cli.main([...])`` in-process; each call starts
only after the previous one returned, and every output is checked. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones from a separate traced run. End-to-end times
are given at reference speed (see ``at_reference_speed``). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run it from the repository root; it builds nothing and reads src/ directly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import check_case
from inputs import WORKLOADS, build, load_library, plan
from reference import REF_S, at_reference_speed, reference_work
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
# least time between two reference samples of the measured loop
REF_EVERY_S = 0.5


def setup_seconds(workload, drawn, workdir: Path, refs: list) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter (setup_once.py).

    A set-up imports codebetti cold, then builds and writes every input file
    of the plan ``drawn``. Choosing the draws, which rejects codes outside a
    rung's band, is not part of it. The caller runs this after the measured
    loop, so that these interpreters do not count in peak_rss_mb. A
    reference time (reference.py) is appended to ``refs`` before each set-up.
    """
    plan_file = workdir / "plan.json"
    plan_file.write_text(json.dumps(drawn), encoding="utf-8")
    argv = [sys.executable, str(HERE / "setup_once.py"), workload.name, str(plan_file), str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_work())
        times.append(float(subprocess.run(argv, check=True, capture_output=True, text=True,
                                          timeout=120).stdout))
    return statistics.median(times)


def call(argv):
    """One CLI call with captured output: (exit code or None on an escaped exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = sys.modules["codebetti.cli"].main(argv)
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            traceback.print_exc()
            rc = None
    if rc != 0:
        print(f"perfbench: {' '.join(argv)} -> {rc}\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue()


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, case, errors) -> None:
        for err in errors:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"perfbench: {case.case_id}: {err}", file=sys.stderr)


def timed_calls(workload, case):
    start = time.perf_counter()
    results = [call(argv) for argv in case.argvs(workload)]
    return time.perf_counter() - start, results


def measure(lib, workload, rounds, seconds: float, tally: Tally, refs: list) -> dict:
    """Whole rounds in a closed loop until ``seconds`` have passed; end-to-end metrics as measured.

    Throughput is taken from per-rung medians: the machine's speed drifts
    by tens of percent over seconds, and a mean would follow every drift.
    Reference times (reference.py) are appended to ``refs`` between codes, at
    most every REF_EVERY_S seconds; they are not part of any code's time.
    """
    per_rung = [[] for _ in workload.rungs]
    start = time.perf_counter()
    sampled = -REF_EVERY_S
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for rung, case in enumerate(rounds[r % len(rounds)]):
            if time.perf_counter() - sampled >= REF_EVERY_S:
                sampled = time.perf_counter()
                refs.append(reference_work())
            dt, results = timed_calls(workload, case)
            per_rung[rung].append(dt)
            tally.add(case, check_case(lib, workload, case, results)[0])
        r += 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # oracle pool workers
    times = [dt for rung in per_rung for dt in rung]
    print(f"perfbench: {len(times)} codes in {r} rounds; code_s_p50 is the median of {len(times)}")
    return {
        "codes_per_s": len(per_rung) / sum(statistics.median(rung) for rung in per_rung),
        "code_s_p50": statistics.median(times),
        # largest resident set of this process or of any oracle pool worker
        "peak_rss_mb": max(own, children) / 1024,
    }


def replay(lib, workload, case, tracer: Tracer, ref, tally: Tally) -> None:
    """Stage calls the CLI does not make: the oracle at the other thread count, and inversion."""
    errors = []
    oracle = tracer.last.get("oracle.sweep")
    closed = tracer.last.get("betti.closed")
    with tracer.installed(), tracer.span("replay"):
        if oracle is not None:
            (ideal, *_), kwargs, table = oracle
            other = 2 if kwargs.get("threads", 1) == 1 else 1
            again = lib.betti_table_oracle(ideal, threads=other)
            errors.append(None if again == table else f"oracle at {other} threads disagrees")
        if closed is not None:
            profile = lib.invert_multigraded(closed[2])
    if oracle is not None:
        tracer.counts["oracle.table_total"] += sum(table.totals())
        tracer.counts["oracle.restrictions"] += ref.restrictions()
        tracer.counts["oracle.faces"] += ref.face_count()
    if closed is not None:
        jkl = [[k, l, c] for (k, l), c in profile.jkl]
        errors.append(None if jkl == ref.profile_jkl() else f"inverted profile {jkl} is wrong")
    tally.add(case, errors)


def measure_traced(lib, workload, rounds, tally: Tally, span_file: Path) -> dict:
    """Each code untraced, then traced with spans; per-layer metrics over trace_rounds rounds.

    The traced run does a fixed amount of work rather than running for a
    fixed time, so that per-layer sums compare across commits.
    """
    tracer = Tracer()
    untraced = traced = 0.0
    for r in range(workload.trace_rounds):
        for case in rounds[r % len(rounds)]:
            dt, results = timed_calls(workload, case)
            untraced += dt
            tally.add(case, check_case(lib, workload, case, results)[0])
            tracer.code = case.case_id
            tracer.last.clear()
            with tracer.installed():
                dt, results = timed_calls(workload, case)
            traced += dt
            errors, ref = check_case(lib, workload, case, results)
            tally.add(case, errors)
            replay(lib, workload, case, tracer, ref, tally)
    tracer.write(span_file)
    print(f"perfbench: traced {workload.trace_rounds} rounds; spans in {span_file}")
    return layer_metrics(tracer, traced / untraced - 1)


def layer_metrics(t: Tracer, overhead_frac: float) -> dict:
    c = t.counts
    sweep = t.busy("oracle.sweep", under="cli.main")
    t1 = t.busy("oracle.sweep", threads=1)
    t2 = t.busy("oracle.sweep", threads=2)
    return {
        "codes.parse_s": t.busy("codes.parse"),
        "codes.validate_s": t.busy("codes.validate"),
        "codes.words": c["codes.words"],
        "pseudomonomials.canonical_form_s": t.busy("pseudomonomials.canonical_form"),
        "pseudomonomials.cf_calls": c["pseudomonomials.cf_calls"],
        "pseudomonomials.cf_terms": c["pseudomonomials.cf_terms"],
        "pseudomonomials.candidates": c["pseudomonomials.candidates"],
        "pseudomonomials.cf_yield": _ratio(c["pseudomonomials.cf_terms"], c["pseudomonomials.candidates"]),
        "polarization.polarized_ideal_s": t.busy("polarization.polarized_ideal"),
        "polarization.gens": c["polarization.gens"],
        "polarization.vars_used": c["polarization.vars_used"],
        "graphs.relationship_graph_s": t.busy("graphs.relationship_graph"),
        "graphs.chordality_s": t.busy("graphs.chordality"),
        "graphs.edges": c["graphs.edges"],
        "piercing.fast_verdict_s": t.busy("piercing.fast_verdict"),
        "piercing.definitional_s": t.busy("piercing.definitional"),
        "piercing.definitional_calls": c["piercing.definitional_calls"],
        "piercing.profile_s": t.busy("piercing.profile"),
        "piercing.pierced_frac": _ratio(c["piercing.pierced"], c["piercing.fast_calls"]),
        "betti.closed_s": t.busy("betti.closed"),
        "betti.recursion_s": t.busy("betti.recursion"),
        "betti.invert_s": t.busy("betti.invert"),
        "oracle.sweep_s": sweep,
        "oracle.sweep_s_t1": t1,
        "oracle.sweep_s_t2": t2,
        "oracle.parallel_speedup": _ratio(t1, t2),
        "oracle.restrictions": c["oracle.restrictions"],
        "oracle.faces": c["oracle.faces"],
        "oracle.restrictions_per_s": _ratio(c["oracle.restrictions"], sweep),
        "oracle.table_total": c["oracle.table_total"],
        "cli.main_s": t.busy("cli.main"),
        "cli.calls": c["cli.calls"],
        "cli.overhead_s": t.self_time("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the untraced measurement; a traced run does fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{workload.name}-{args.seed}"
    lib = load_library()
    drawn = plan(lib, workload, args.seed)
    rounds = build(lib, workload, drawn, workdir)
    tally = Tally()
    raw = None  # end-to-end metrics before scaling to reference speed
    if args.trace:
        values = measure_traced(lib, workload, rounds, tally, workdir / "spans.jsonl")
    else:
        refs = []
        raw = measure(lib, workload, rounds, args.seconds, tally, refs)
        raw["setup_s"] = setup_seconds(workload, drawn, workdir, refs)
        values = at_reference_speed(raw, refs)
        print(f"perfbench: reference work median {statistics.median(refs):.6g} s over "
              f"{len(refs)} samples, {REF_S} s at reference speed")
        for name, value in raw.items():
            print(f"perfbench raw {name} = {value:.6g}")
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": git_sha()}
    print("perfbench env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"perfbench metric {name} = {values[name]:.6g} {unit}")
    print(f"perfbench failed_frac = {tally.failed / tally.attempted:.6g} of {tally.attempted} operations")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, raw=raw), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

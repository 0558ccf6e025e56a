#!/usr/bin/env python3
"""Every metric of BENCHMARK.json, by name and unit, for every workload.

    python3 perfbench/report.py --seed 1

Runs perfbench/run.py once untraced, for run_seconds of BENCHMARK.json, and
once traced per workload, each in its own process so that peak memory is
measured per run, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    results = {w: [run(w, args.seed, spec["run_seconds"], trace) for trace in (0, 1)] for w in names}
    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>16}" for w in names))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        print(f"-- {key}")
        for m in spec[key]:
            cells = "".join(f"{results[w][trace]['metrics'][m['name']]['value']:>16.6g}" for w in names)
            print(f"{m['name']:<{width}}  {m['unit']:<6}{cells}")
    print("-- operations, both runs")
    totals = {w: (sum(r["attempted"] for r in results[w]), sum(r["failed"] for r in results[w]))
              for w in names}
    print(f"{'attempted':<{width}}  {'count':<6}" + "".join(f"{totals[w][0]:>16}" for w in names))
    print(f"{'failed_frac':<{width}}  {'ratio':<6}"
          + "".join(f"{totals[w][1] / totals[w][0]:>16.6g}" for w in names))
    return 0 if all(r["correct"] for rs in results.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())

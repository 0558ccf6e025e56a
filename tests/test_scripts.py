"""The scripts/ entry points, each run once in a subprocess with small arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_triple_agreement_sweep():
    out = run_script("triple_agreement_sweep.py", "--max-n", "3", "--random", "5")
    assert re.search(r"^agreement on all \d+ codes in ", out, re.M)


def test_chordal_invariance_scan():
    out = run_script("chordal_invariance_scan.py", "--exhaustive-n", "4", "--sample-n", "5", "--samples", "10")
    assert re.search(r"^exhaustive n <= 4: \d+ chordal graphs, invariant holds$", out, re.M)
    assert re.search(r"^sampled n = 5: \d+ chordal graphs, invariant holds$", out, re.M)
    assert re.search(r"^done in ", out, re.M)


def test_reproduce_worked_example():
    out = run_script("reproduce_worked_example.py")
    lines = out.splitlines()
    assert "closed form, recursion, and homology oracle agree: True" in lines
    assert "recovered marginals: (1, 3, 1, 0, 0)" in lines
    assert "recovered profile:   j[0,0]=1 j[1,0]=2 j[1,1]=1 j[2,0]=1" in lines


"""The host's speed, sampled by a fixed piece of work between the measured calls.

    samples = [reference_work() for ...]     # interleaved with the CLI calls
    at_reference_speed(raw, samples)

run.py rescales its end-to-end times with these samples. The work runs in
the benchmark's own process, on the CPU the calls run on: samples taken in
a child process, which the scheduler may put on the other CPU, followed the
host's drift far worse (see perfbench/README.md).
"""

from __future__ import annotations

import statistics
import time
from itertools import combinations

# Seconds the work takes at reference speed, a round number near its median
# on the 2-vCPU virtual machine the benchmark was tuned on (Python 3.11.7).
REF_S = 0.04
REF_WORDS = (0, 3, 5, 6, 9, 12, 17, 24, 33, 40, 48, 65, 66, 72, 96, 129, 130, 136, 160, 192)


def reference_work() -> float:
    """Seconds a fixed piece of pure-Python work takes now.

    The work is the benchmark's own code and never changes: a plain counting
    loop, then a sweep for the minimal pseudo-monomials vanishing on a fixed
    8-neuron code, with the bit-mask loops and generator expressions of the
    program's hot paths. Each part alone tracked the host's drift best on
    some stretches of runs and worst on others, so their sum is used (see
    perfbench/README.md).
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i & 7
    found = []
    for deg in range(1, 9):
        for bits in combinations(range(8), deg):
            supp = sum(1 << b for b in bits)
            sub = supp
            while True:
                sigma, tau = sub, supp & ~sub
                if not any(fs & ~sigma == 0 and ft & ~tau == 0 for fs, ft in found):
                    if all((sigma & ~w) or (tau & w) for w in REF_WORDS):
                        found.append((sigma, tau))
                if sub == 0:
                    break
                sub = (sub - 1) & supp
    return time.perf_counter() - start


def at_reference_speed(raw: dict, samples: list) -> dict:
    """End-to-end metrics as a host on which the reference work takes REF_S would read them.

    The host's CPU speed drifts by ±25% and more in phases of minutes, so
    runs of one commit made minutes apart differ by that much. ``samples``
    are reference times taken between the measured codes and before each
    set-up; each time is scaled by REF_S / median(samples) and each rate by
    its inverse. Peak memory is not a time and is left as measured.
    """
    factor = REF_S / statistics.median(samples)
    scale = {"codes_per_s": 1 / factor, "code_s_p50": factor, "setup_s": factor}
    return {name: value * scale.get(name, 1.0) for name, value in raw.items()}

"""Seeded inputs and the CLI calls of each workload.

Every input is a code file; the program under test sees nothing else. The
same (workload, seed) always yields the same files, whatever the machine.
Inputs are made in two steps: ``plan`` picks the accepted draws once, and
``build`` turns a plan into code files. Only ``build`` is part of set-up time.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from checks import lattice_size, quadratic_gens

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI calls made on each of them (why: see BENCHMARK.json).

    ``rungs`` is the input-size ladder: a round holds one code per rung, and
    runs are made of whole rounds so that every run sees the same size mix.
    ``pool_rounds`` rounds are generated at set-up; a long run cycles over
    them. A traced run stops after ``trace_rounds`` rounds, so per-layer sums
    cover the same work on every commit.
    """

    name: str
    rungs: tuple
    calls: tuple
    pool_rounds: int
    trace_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pierced-chain",
            # canonical form (the 3^n sweep) is ~99% of the time; no oracle runs.
            # n stops at 11 so that a run holds ~40 codes per rung: at n = 12
            # one code took ~1.7 s and its rung, with ~8 samples, set the run
            rungs=((9, None), (10, None), (11, None)),
            calls=(("pierced", "{path}", "--certify", "--json"),
                   ("betti", "{path}", "--method", "formula", "--json")),
            pool_rounds=20,
            trace_rounds=6,
        ),
        Workload(
            name="betti-all",
            # the oracle sweep over quadratic ideals is ~65-75% of the time, CF the rest
            # (n, (variables, words, restrictions)), the last two as (low, high):
            # at a given variable count the oracle's time grows with its
            # restriction count and with the number of words (its faces), and
            # both vary widely across pierced codes of one n (30x in
            # restrictions); unpinned, a run's total would hinge on a few codes
            rungs=((9, (14, (12, 15), (5000, 6500))),
                   (10, (14, (13, 16), (7000, 8500))),
                   (11, (14, (14, 17), (9000, 10500)))),
            calls=(("betti", "{path}", "--method", "all", "--threads", "1", "--json"),),
            pool_rounds=8,
            trace_rounds=3,
        ),
        Workload(
            name="general-oracle",
            # dense non-quadratic ideals through the 2-worker oracle pool; a fast
            # path for pierced or quadratic inputs is bypassed here
            rungs=((6, 11), (6, 12), (6, 13)),
            calls=(("pierced", "{path}", "--certify", "--json"),
                   ("betti", "{path}", "--method", "oracle", "--threads", "2", "--json")),
            pool_rounds=30,
            trace_rounds=7,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One generated code: its file, and the construction order when it is pierced."""

    case_id: str
    n: int
    path: Path
    order: object  # PiercingOrder from the generator, or None for general codes
    code: object  # NeuralCode

    def argvs(self, workload: Workload) -> list[list[str]]:
        return [[a.format(path=self.path) for a in call] for call in workload.calls]


def load_library():
    """Import codebetti and its CLI from this checkout's src/ and return the package."""
    src = ROOT / "src"
    if not (src / "codebetti" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no codebetti sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    lib = importlib.import_module("codebetti")
    importlib.import_module("codebetti.cli")
    if Path(lib.__file__).resolve().parent != (src / "codebetti").resolve():
        raise SystemExit(f"perfbench: imported codebetti from {lib.__file__}, not from {src}")
    return lib


def _rng(*parts) -> random.Random:
    # str seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(":".join(map(str, parts)))


def _in_band(code, band) -> bool:
    # judged on the ideal's own shape, computed here, never on a timing
    variables, (words_low, words_high), (low, high) = band
    if not words_low <= len(code.words) <= words_high:
        return False
    gens = quadratic_gens(code)
    used = 0
    for g in gens:
        used |= g
    return used.bit_count() == variables and low <= lattice_size(gens, limit=high) <= high


def _pierced_draw(lib, workload: Workload, seed: int, rnd: int, n: int, band) -> int:
    for attempt in range(1000):
        sub = _rng(workload.name, seed, rnd, n, band, attempt).getrandbits(32)
        if band is None or _in_band(lib.random_pierced_code(n, seed=sub)[1], band):
            return sub
    raise RuntimeError(f"no pierced code with n={n} in band {band} in 1000 draws")


def _general_draw(lib, workload: Workload, seed: int, rnd: int, n: int, words: int) -> list[int]:
    # redrawn until clean because `pierced` rejects silent or duplicate neurons
    for attempt in range(1000):
        drawn = _rng(workload.name, seed, rnd, n, words, attempt).sample(range(1, 1 << n), words - 1)
        if lib.validate_code(lib.NeuralCode.from_words(n, drawn)).clean:
            return drawn
    raise RuntimeError(f"no clean code with n={n} and {words} words in 1000 draws")


def plan(lib, workload: Workload, seed: int) -> list[list]:
    """Per round, per rung, n and the accepted draw: a generator seed, or a general code's words."""
    draw = _general_draw if workload.name == "general-oracle" else _pierced_draw
    return [[[n, draw(lib, workload, seed, rnd, n, param)] for n, param in workload.rungs]
            for rnd in range(workload.pool_rounds)]


def build(lib, workload: Workload, drawn: list[list], workdir: Path) -> list[list[Case]]:
    """Make the codes of a plan and write their files into workdir; returns rounds of cases."""
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    for rnd, draws in enumerate(drawn):
        cases = []
        for rung, (n, d) in enumerate(draws):
            if workload.name == "general-oracle":
                order, code = None, lib.NeuralCode.from_words(n, d)
            else:
                order, code = lib.random_pierced_code(n, seed=d)
            case_id = f"round{rnd}-rung{rung}-n{n}"
            path = workdir / f"{case_id}.code"
            path.write_text(lib.serialize_code(code), encoding="utf-8")
            cases.append(Case(case_id, n, path, order, code))
        rounds.append(cases)
    return rounds

#!/usr/bin/env python3
"""One timed set-up in a fresh interpreter; run.py takes the median of several as setup_s.

    python3 perfbench/setup_once.py <workload> <plan.json> <workdir>

Imports codebetti cold, then builds the codes of a plan made by inputs.plan
and writes their files. Prints the seconds those two steps took; reading the
plan and importing the benchmark's own modules are not counted.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, plan_file, workdir = sys.argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import codebetti.cli  # noqa: F401
    seconds = time.perf_counter() - start

    from inputs import WORKLOADS, build, load_library
    lib = load_library()  # already imported; checks that it came from SRC
    drawn = json.loads(Path(plan_file).read_text(encoding="utf-8"))
    start = time.perf_counter()
    build(lib, WORKLOADS[name], drawn, Path(workdir))
    print(seconds + time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())

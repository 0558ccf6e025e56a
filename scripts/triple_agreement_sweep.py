#!/usr/bin/env python3
"""Sweep pierced codes and verify that all three Betti routes agree exactly.

Exhausts every piercing-step sequence up to --max-n (deduplicated), then
adds --random seeded codes on --random-n neurons.  The tables are built
and compared by the pipeline behind `codebetti betti`; a disagreement
prints its report and the offending code, and exits 1.
"""

import argparse
import sys
import time

from codebetti import enumerate_pierced_codes, random_pierced_code, serialize_code
from codebetti.cli import CrossCheckMismatch, agreed_table, betti_tables


def check(code, order=None):
    """True if the three routes agree on the code; otherwise print the mismatch report and the code.

    The formula and the recursion follow `order`, or the peel's order when it is None.
    """
    try:
        agreed_table(betti_tables(code, order=order), "the code below")
    except CrossCheckMismatch as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        print(serialize_code(code), file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--rank", type=int, default=3, help="largest pierced-interval rank")
    ap.add_argument("--random", type=int, default=200, help="number of seeded random codes")
    ap.add_argument("--random-n", type=int, default=6)
    args = ap.parse_args()

    t0 = time.perf_counter()
    checked = 0
    for code in enumerate_pierced_codes(args.max_n, args.rank):
        if not check(code):
            return 1
        checked += 1
    for seed in range(args.random):
        order, code = random_pierced_code(args.random_n, seed=seed)
        if not check(code, order):
            return 1
        checked += 1
    elapsed = time.perf_counter() - t0
    print(f"agreement on all {checked} codes in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

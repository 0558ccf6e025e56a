#!/usr/bin/env python3
"""Scan chordal graphs and confirm the simplicial-degree multiset is order-free.

Exhaustive over all labeled graphs up to --exhaustive-n vertices, then a
random sample at each size up to --sample-n.  Each chordal graph goes
through the check behind `codebetti chordal`, and the witness of each
non-chordal graph of the exhaustive pass must be a chordless cycle in it,
checked pair by pair; a violation prints a `cross-check mismatch:` report
and exits 1.
"""

import argparse
import random
import sys
import time
from itertools import combinations

from codebetti import Graph, chordality, chordless_cycle_witness
from codebetti.cli import CrossCheckMismatch, checked_orderings


def is_chordless_cycle(g, cycle) -> bool:
    """Whether `cycle` has at least 4 distinct vertices, each adjacent exactly to its two cycle neighbours."""
    k = len(cycle)
    return k >= 4 and len(set(cycle)) == k and all(
        g.has_edge(cycle[i], cycle[j]) == (j - i in (1, k - 1)) for i in range(k) for j in range(i + 1, k)
    )


def scan(args):
    t0 = time.perf_counter()
    chordal_count = 0
    for n in range(1, args.exhaustive_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            source = f"n={n} edges={sorted(g.edges)}"
            ordering = chordality(g)
            if ordering is not None:
                checked_orderings(g, ordering, source)
                chordal_count += 1
            else:
                cycle = chordless_cycle_witness(g)
                if not is_chordless_cycle(g, cycle):
                    raise CrossCheckMismatch(f"{source} is not chordal, but its witness {cycle} is no chordless cycle")
    print(f"exhaustive n <= {args.exhaustive_n}: {chordal_count} chordal graphs, invariant holds")

    rng = random.Random(args.seed)
    for n in range(args.exhaustive_n + 1, args.sample_n + 1):
        hits = 0
        for _ in range(args.samples):
            p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            ordering = chordality(g)
            if ordering is not None:
                checked_orderings(g, ordering, f"n={n} edges={sorted(g.edges)}")
                hits += 1
        print(f"sampled n = {n}: {hits} chordal graphs, invariant holds")
    print(f"done in {time.perf_counter() - t0:.1f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exhaustive-n", type=int, default=6)
    ap.add_argument("--sample-n", type=int, default=8)
    ap.add_argument("--samples", type=int, default=200, help="random graphs per size")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        scan(args)
    except CrossCheckMismatch as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

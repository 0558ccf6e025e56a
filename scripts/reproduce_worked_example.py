#!/usr/bin/env python3
"""End-to-end walkthrough of the 12-word demo code on five neurons, read from data/demo_five_neurons.code.

Prints the canonical form, polarized ideal, relationship graph, piercing
structure, and the Betti table computed three independent ways.  The tables
are built and compared by the pipeline behind `codebetti betti`; a
disagreement, or an alternative order that is refused or changes the
profile, prints a `cross-check mismatch:` report and exits 1.
"""

import sys
from pathlib import Path

from codebetti import (
    canonical_form,
    chordality,
    graded_betti_closed,
    invert_graded,
    invert_multigraded,
    is_inductively_pierced,
    parse_code,
    pdim_from_profile,
    piercing_profile,
    polarized_ideal,
    relationship_graph,
    steps_for_order,
)
from codebetti.cli import CrossCheckMismatch, agreed_table, betti_tables

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_five_neurons.code"


def walkthrough():
    code = parse_code(DEMO.read_text(encoding="utf-8"))
    print(f"code: n={code.n}, {len(code.words)} codewords")

    cf = canonical_form(code)
    print("canonical form:", ", ".join(f.render() for f in cf))

    ideal = polarized_ideal(cf, code.n)
    print("polarized ideal:", ideal.render())

    graph = relationship_graph(ideal)
    print("relationship graph edges:", " ".join(f"{i}-{j}" for i, j in sorted(graph.edges)))
    ordering = chordality(graph)
    print("chordal, elimination order:", ",".join(map(str, ordering.order)))

    order = is_inductively_pierced(code)
    print("\npiercing order found by backtracking:")
    print(order.render())
    profile = piercing_profile(order)
    print("profile:", profile.render(), "|", profile.render_marginals())

    for alt in [(1, 2, 3, 4, 5), (1, 4, 2, 3, 5)]:
        other = steps_for_order(code, alt)
        if other is None or piercing_profile(other) != profile:
            found = "is not a piercing order" if other is None else "has profile " + piercing_profile(other).render()
            raise CrossCheckMismatch(
                f"order {alt} of {DEMO} {found}; the search's order {order.order} has profile {profile.render()}"
            )
        print(f"order {','.join(map(str, alt))} accepted; same profile: True")

    closed = agreed_table(betti_tables(code, order=order), DEMO)
    print("\nclosed form, recursion, and homology oracle agree: True")
    print("total Betti numbers:", closed.totals())
    print(closed.render_triangle())

    print("recovered marginals:", invert_graded(graded_betti_closed(profile), code.n))
    print("recovered profile:  ", invert_multigraded(closed).render())
    print("projective dimension:", pdim_from_profile(profile))


def main():
    try:
        walkthrough()
    except CrossCheckMismatch as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

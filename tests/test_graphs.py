import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from codebetti import (
    Graph,
    SquarefreeIdeal,
    SquarefreeMonomial,
    all_elimination_orderings,
    canonical_form,
    chordality,
    chordless_cycle_witness,
    mask_of,
    parse_graph,
    polarized_ideal,
    relationship_graph,
    render_dot,
    render_graph,
    simplicial_degree_profile,
)
from codebetti import graphs
from codebetti.graphs import NotSimplicialError
from conftest import backtracking_elimination_orderings, verified_mcs_ordering


def path3():
    return Graph.from_edges(3, [(1, 2), (2, 3)])


def cycle4():
    return Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def test_relationship_graph_worked(worked_code):
    g = relationship_graph(polarized_ideal(canonical_form(worked_code), worked_code.n))
    assert sorted(g.edges) == [(1, 2), (1, 4), (2, 3), (2, 4), (2, 5)]


def test_relationship_graph_zero_ideal_is_complete():
    g = relationship_graph(SquarefreeIdeal(3, ()))
    assert g == complete(3)


def test_relationship_graph_single_pair():
    g = relationship_graph(SquarefreeIdeal(2, (SquarefreeMonomial(3, 0),)))
    assert g.edges == frozenset()


def test_relationship_graph_rejects_non_quadratic():
    with pytest.raises(ValueError):
        relationship_graph(SquarefreeIdeal(3, (SquarefreeMonomial(7, 0),)))


def test_relationship_graph_xy_and_yx_forbid_the_same_pair():
    by_xy = relationship_graph(
        SquarefreeIdeal(2, (SquarefreeMonomial(mask_of((1,)), mask_of((2,))),))
    )
    by_yx = relationship_graph(
        SquarefreeIdeal(2, (SquarefreeMonomial(mask_of((2,)), mask_of((1,))),))
    )
    by_xx = relationship_graph(
        SquarefreeIdeal(2, (SquarefreeMonomial(mask_of((1, 2)), 0),))
    )
    assert by_xy == by_yx == by_xx


def test_chordality_verdicts(worked_code):
    assert chordality(cycle4()) is None
    assert chordality(complete(4)) is not None
    g = relationship_graph(polarized_ideal(canonical_form(worked_code), worked_code.n))
    assert chordality(g) is not None


def test_chordless_cycle_witness():
    cycle = chordless_cycle_witness(cycle4())
    assert cycle is not None and len(cycle) == 4
    assert chordality(Graph.from_edges(len(cycle), [])) is not None  # sanity on small graphs


def test_witness_is_a_chordless_cycle():
    g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (3, 6)])
    cycle = chordless_cycle_witness(g)
    assert cycle is not None and len(cycle) >= 4
    k = len(cycle)
    for idx in range(k):
        for jdx in range(idx + 1, k):
            adjacent = (jdx - idx) in (1, k - 1)
            assert g.has_edge(cycle[idx], cycle[jdx]) == adjacent


def test_witness_refuses_chordal_graph():
    with pytest.raises(ValueError, match="chordal"):
        chordless_cycle_witness(complete(4))


st_dense_graphs = st.integers(4, 9).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda bits: Graph.from_edges(
            n, [p for p, keep in zip(combinations(range(1, n + 1), 2), bits) if keep]
        )
    )
)


@settings(max_examples=200)
@given(st_dense_graphs)
def test_witness_found_on_every_non_chordal_graph(g):
    assume(chordality(g) is None)
    cycle = chordless_cycle_witness(g)
    k = len(cycle)
    assert k >= 4 and len(set(cycle)) == k
    for idx in range(k):
        for jdx in range(idx + 1, k):
            assert g.has_edge(cycle[idx], cycle[jdx]) == ((jdx - idx) in (1, k - 1))


def test_profile_path3():
    assert simplicial_degree_profile(path3(), (1, 2, 3)) == (0, 1, 1)


def test_profile_k3():
    assert simplicial_degree_profile(complete(3), (1, 2, 3)) == (0, 1, 2)


def test_profile_single_vertex():
    assert simplicial_degree_profile(Graph(1, frozenset()), (1,)) == (0,)


def test_profile_rejects_non_simplicial_step():
    with pytest.raises(NotSimplicialError, match="step 1"):
        simplicial_degree_profile(path3(), (2, 1, 3))


def test_profile_rejects_a_non_permutation():
    for order in [(1, 1, 2), (1, 2, 4), (1, 2)]:  # repeated, out of range, missing
        with pytest.raises(ValueError, match="permutation") as caught:
            simplicial_degree_profile(path3(), order)
        assert not isinstance(caught.value, NotSimplicialError)


def test_profile_names_the_stuck_vertex_and_step():
    path4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert simplicial_degree_profile(path4, (1, 2, 3, 4)) == (0, 1, 1, 1)
    with pytest.raises(NotSimplicialError, match="vertex 3 is not simplicial at step 2"):
        simplicial_degree_profile(path4, (1, 3, 2, 4))


def test_all_orderings_k2():
    got = {o.order for o in all_elimination_orderings(complete(2))}
    assert got == {(1, 2), (2, 1)}


def test_all_orderings_path3():
    got = {o.order for o in all_elimination_orderings(path3())}
    assert got == {(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)}


def test_all_orderings_c4_empty():
    assert list(all_elimination_orderings(cycle4())) == []


def test_all_orderings_guard():
    with pytest.raises(ValueError):
        next(all_elimination_orderings(complete(10)))


def test_elimination_walk_lists_the_backtracking_orderings():
    graphs_ = []
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            graphs_.append(Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    rng = random.Random(0)
    for n in range(6, 10):
        for _ in range(30):
            p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
            graphs_.append(Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]))
    chordal = 0
    for g in graphs_:
        expected = list(backtracking_elimination_orderings(g))
        assert list(all_elimination_orderings(g)) == expected, sorted(g.edges)
        first = chordality(g)
        assert first == (expected[0] if expected else None), sorted(g.edges)
        assert (first is None) == (verified_mcs_ordering(g) is None), sorted(g.edges)
        chordal += bool(expected)
    assert 0 < chordal < len(graphs_)  # chordal and non-chordal graphs both reach the check


def test_elimination_walk_ends_at_the_first_stuck_stage(monkeypatch):
    # K5 on 1..5 beside the four-cycle 6-7-8-9: every vertex of K5 is
    # simplicial, and the walk stops once only the cycle is left
    k5 = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    g = Graph.from_edges(9, k5 + [(6, 7), (7, 8), (8, 9), (6, 9)])
    calls = []
    is_clique = graphs._is_clique
    monkeypatch.setattr(graphs, "_is_clique", lambda mask, adj: calls.append(mask) or is_clique(mask, adj))
    assert list(all_elimination_orderings(g)) == []
    assert 0 < len(calls) <= g.n * (g.n + 1) // 2
    calls.clear()
    assert chordality(g) is None
    assert 0 < len(calls) <= g.n


st_graphs = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        lambda picks: Graph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) in picks]
        ),
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).map(lambda p: (min(p), max(p))).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=10,
        ),
    )
)


@settings(max_examples=150)
@given(st_graphs)
def test_chordality_agrees_with_ordering_enumeration(g):
    orderings = list(all_elimination_orderings(g))
    assert (chordality(g) is not None) == bool(orderings)


@settings(max_examples=100)
@given(st_graphs)
def test_profile_invariance_across_orderings(g):
    profiles = {o.profile() for o in all_elimination_orderings(g)}
    assert len(profiles) <= 1


def test_graph_io_roundtrip():
    g = cycle4()
    assert parse_graph(render_graph(g)) == g
    dot = render_dot(Graph.from_edges(3, [(1, 2)]))
    assert "1 -- 2;" in dot and "3;" in dot

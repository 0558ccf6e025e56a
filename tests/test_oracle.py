import os
import random
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from codebetti import (
    Graph,
    GuardExceeded,
    HypothesisViolation,
    NeuralCode,
    SquarefreeIdeal,
    SquarefreeMonomial,
    betti_recursive,
    betti_table_oracle,
    canonical_form,
    chordality,
    mask_of,
    multigraded_betti_closed,
    oracle_sweep,
    parse_code,
    pdim,
    piercing_profile,
    polarized_ideal,
    random_pierced_code,
    regularity,
    regularity_characterization,
    restricted_homology,
    variable_mask,
)
from codebetti import oracle as oracle_module
from conftest import (
    code_of,
    pairwise_minimalize,
    plain_core,
    plain_faces,
    plain_homology_dims,
    set_support_unions,
    sweep_betti_table,
)


def ideal(n, *gens):
    monos = []
    for xs, ys in gens:
        monos.append(SquarefreeMonomial(mask_of(xs), mask_of(ys)))
    return SquarefreeIdeal(n, tuple(monos))


J1 = ideal(4, ((1, 3), ()), ((2, 4), ()))
J2 = ideal(4, ((1, 4), ()), ((3, 4), ()))
J3 = ideal(4, ((1, 4), ()), ((4,), (3,)))


def test_restricted_homology_two_points():
    assert restricted_homology(ideal(2, ((1, 2), ())), ["x1", "x2"]) == ((0, 1),)


def test_restricted_homology_full_simplex_is_contractible():
    zero = SquarefreeIdeal(3, ())
    for sigma in (["x1"], ["x1", "y2"], ["x1", "x2", "x3", "y1"]):
        assert restricted_homology(zero, sigma) == ()


def test_restricted_homology_four_cycle():
    assert restricted_homology(J1, ["x1", "x2", "x3", "x4"]) == ((1, 1),)


def test_restricted_homology_empty_restriction():
    assert restricted_homology(SquarefreeIdeal(2, ()), []) == ((-1, 1),)


def test_restricted_homology_guard():
    with pytest.raises(GuardExceeded):
        restricted_homology(SquarefreeIdeal(16, ()), (1 << 25) - 1)


def _refuse_rows(faces_by_size, rows, picked):
    raise AssertionError("the boundary rows must not be built for a refused input")


def _refuse_listing(mask):
    raise AssertionError("no face may be listed for a refused restriction")


@pytest.mark.parametrize("sigma", [-1, -(1 << 3), 1 << 4, 1 << 10, ["y1", ""]])
def test_restricted_homology_refuses_a_set_that_is_no_set_of_variables(monkeypatch, sigma):
    # n = 2 has the variables 0..3: a negative mask has endless set bits, a
    # bit at 4 or above is no variable, and "" is no name
    monkeypatch.setattr(oracle_module, "_members", _refuse_listing)
    with pytest.raises(ValueError, match="no set of the 4 variables|bad variable"):
        restricted_homology(SquarefreeIdeal(2, ()), sigma)


def test_row_bits_guard_bounds():
    # the 16-vertex full simplex (C(32,15) bits, 67 MiB) is admitted, the 17-vertex one is not
    oracle_module._check_row_bits([comb(16, s) for s in range(17)])
    with pytest.raises(GuardExceeded, match="exceed the cap of 1073741824"):
        oracle_module._check_row_bits([comb(17, s) for s in range(18)])
    # so is the 48,167-face cubic ideal on all its face sizes
    cubic = _cubic_ideal(10, 9, seed=5)
    places, gens = _renumbered_gens([g.support_mask(10) for g in cubic.gens])
    u = len(places)
    levels = oracle_module._face_levels(gens, oracle_module._holding(u), oracle_module._sizes(u))[1]
    assert sum(level.bit_count() for level in levels) == 48_167
    oracle_module._check_row_bits([level.bit_count() for level in levels])


def test_restricted_homology_refuses_large_rows_before_building_them(monkeypatch):
    monkeypatch.setattr(oracle_module, "_homology_dims", _refuse_rows)
    # no generators: the restriction to 17 vertices is the full simplex, whose
    # rows take the sum of C(17, s) * C(17, s - 1) = C(34, 16) bits
    with pytest.raises(GuardExceeded, match=f"boundary rows of {comb(34, 16)} bits"):
        restricted_homology(SquarefreeIdeal(9, ()), (1 << 17) - 1)


def test_oracle_sweep_refuses_large_rows_before_building_them(monkeypatch):
    monkeypatch.setattr(oracle_module, "_homology_dims", _refuse_rows)
    # a pool forked now refuses rows in its workers too, so the test gets a
    # pool of its own, stopped at the end; the undo brings the kept one back
    monkeypatch.setattr(oracle_module, "_POOL", None)
    # one generator on 17 variables: its restriction is the boundary of a
    # 16-simplex, a core of 17 vertices that holds every face of the full
    # simplex but the top one
    simplex = SquarefreeIdeal(17, (SquarefreeMonomial((1 << 17) - 1, 0),))
    try:
        for threads in (1, 2):
            with pytest.raises(GuardExceeded, match=f"boundary rows of {comb(34, 16) - 17} bits"):
                oracle_sweep(simplex, threads=threads)
    finally:
        if oracle_module._POOL is not None:
            oracle_module._POOL[2].terminate()


def test_oracle_sweep_refuses_large_rows_before_listing_faces(monkeypatch):
    listed = []  # the set bits of each bitset listed
    real = oracle_module._members

    def recording(mask):
        listed.append(mask.bit_count())
        return real(mask)

    monkeypatch.setattr(oracle_module, "_members", recording)
    monkeypatch.setattr(oracle_module, "_worker_pool", _refuse_pool)
    # 5 disjoint degree-4 generators on 20 variables: the whole set is a core,
    # the join of five 3-simplex boundaries, whose 759,375 faces need about
    # 7.7e10 bits of rows; the face counts refuse it before any face is listed
    quads = SquarefreeIdeal(10, tuple(SquarefreeMonomial(m & 0x3FF, m >> 10) for m in (0b1111 << 4 * k for k in range(5))))
    for threads in (1, 2):
        listed.clear()
        with pytest.raises(GuardExceeded, match="boundary rows of 76644629540 bits"):
            oracle_sweep(quads, threads=threads)
        # the 32 cores, each union of the quads, are split into point cores
        # and cores that hold a 2-face on bitsets too, so nothing is listed
        assert listed == []


def test_restricted_homology_refuses_large_rows_before_listing_faces(monkeypatch):
    monkeypatch.setattr(oracle_module, "_members", _refuse_listing)
    monkeypatch.setattr(oracle_module, "_homology_dims", _refuse_rows)
    # the 20-vertex full simplex has 2^20 faces, whose rows take C(40, 19)
    # bits; its bitsets take a few MiB, a list of its faces takes tens
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=f"boundary rows of {comb(40, 19)} bits"):
            restricted_homology(SquarefreeIdeal(10, ()), (1 << 20) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_restricted_homology_refuses_more_vertices_than_the_cap_before_any_work(monkeypatch):
    for step in ("_holding", "_members"):
        monkeypatch.setattr(oracle_module, step, _refuse_listing)
    monkeypatch.setattr(oracle_module, "_homology_dims", _refuse_rows)
    # every variable is a generator, so the restriction is {empty} and cheap
    # to list; the cap refuses its 21 vertices all the same
    points = SquarefreeIdeal(11, tuple(SquarefreeMonomial(1 << i, 0) for i in range(11))
                             + tuple(SquarefreeMonomial(0, 1 << i) for i in range(11)))
    with pytest.raises(GuardExceeded, match="21 vertices exceed the cap of 20"):
        restricted_homology(points, (1 << 21) - 1)


def test_variable_mask():
    assert variable_mask(4, ["x1", "y3"]) == 1 | (1 << (4 + 2))
    for name in ("z1", "", "x", "y0", "x5", "x1_0"):
        with pytest.raises(ValueError, match="bad variable"):
            variable_mask(4, [name])


def test_oracle_tables_for_published_ideals():
    t1 = betti_table_oracle(J1)
    assert t1.as_dict == {(0, 0, 0): 1, (1, 2, 0): 2, (2, 4, 0): 1}
    t2 = betti_table_oracle(J2)
    assert t2.as_dict == {(0, 0, 0): 1, (1, 2, 0): 2, (2, 3, 0): 1}
    t3 = betti_table_oracle(J3)
    assert t3.as_dict == {(0, 0, 0): 1, (1, 2, 0): 1, (1, 1, 1): 1, (2, 2, 1): 1}
    # same graded view, different multigraded view
    assert t2.graded() == t3.graded() == {(0, 0): 1, (1, 2): 2, (2, 3): 1}
    assert t2 != t3


def test_oracle_zero_ideal():
    table = betti_table_oracle(SquarefreeIdeal(3, ()))
    assert table.as_dict == {(0, 0, 0): 1}


def test_regularity_values():
    assert regularity(betti_table_oracle(J1), of_ideal=True) == 3
    assert regularity(betti_table_oracle(J2), of_ideal=True) == 2
    assert regularity(betti_table_oracle(SquarefreeIdeal(2, ()))) == 0
    with pytest.raises(ValueError):
        regularity(betti_table_oracle(SquarefreeIdeal(2, ())), of_ideal=True)


def test_pdim_values(worked_code):
    table = betti_table_oracle(polarized_ideal(canonical_form(worked_code), worked_code.n))
    assert pdim(table) == 3
    assert pdim(betti_table_oracle(SquarefreeIdeal(2, ()))) == 0
    assert pdim(betti_table_oracle(J1)) == 2


def test_hochster_sanity_first_strand(worked_code):
    # beta_1 entries count generators by multidegree
    ideal_w = polarized_ideal(canonical_form(worked_code), worked_code.n)
    table = betti_table_oracle(ideal_w)
    from collections import Counter

    gen_degrees = Counter(g.multidegree for g in ideal_w.gens)
    strand = {(u, v): c for (w, u, v), c in table.as_dict.items() if w == 1}
    assert strand == dict(gen_degrees)
    assert table.entry(0, 0, 0) == 1
    used = 0
    for g in ideal_w.gens:
        used |= g.support_mask(ideal_w.n)
    assert all(w <= used.bit_count() for w, _, _, _ in table.entries)


@given(st.integers(0, 3_000), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_oracle_matches_formulas_on_random_codes(seed, n):
    order, code = random_pierced_code(n, seed=seed)
    ideal_r = polarized_ideal(canonical_form(code), code.n)
    oracle_table = betti_table_oracle(ideal_r)
    assert oracle_table == multigraded_betti_closed(piercing_profile(order))
    assert oracle_table == betti_recursive(order)


@given(st.integers(0, 3_000))
@settings(max_examples=15, deadline=None)
def test_substitution_invariance(seed):
    # sending y_i -> x_i is a quotient by a regular sequence, so it keeps the
    # graded table; the bigrading itself collapses under the substitution
    _, code = random_pierced_code(5, seed=seed)
    gens = polarized_ideal(canonical_form(code), code.n).gens
    substituted = [SquarefreeMonomial(g.xsupp | g.ysupp, 0) for g in gens]
    if len(set(substituted)) != len(substituted):
        return
    try:
        pure = SquarefreeIdeal(code.n, tuple(substituted))
    except ValueError:
        return
    mixed = SquarefreeIdeal(code.n, gens)
    assert betti_table_oracle(pure).graded() == betti_table_oracle(mixed).graded()


@given(st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda p: p[0] < p[1]), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_froeberg_consistency(edges):
    # for an edge ideal, regularity 2 is exactly chordality of the complement graph
    n = 5
    edge_ideal = SquarefreeIdeal(
        n, tuple(SquarefreeMonomial(mask_of(p), 0) for p in edges)
    )
    table = betti_table_oracle(edge_ideal)
    generator_graph = Graph.from_edges(n, edges)
    assert (regularity(table, of_ideal=True) == 2) == (
        chordality(generator_graph.complement()) is not None
    )


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, (1 << n) - 1), max_size=14))))
@settings(max_examples=40, deadline=None)
def test_reduced_engine_matches_plain_sweep_on_random_codes(drawn):
    # codes are not filtered for cleanliness: a silent neuron i puts the
    # degree-1 generator x_i into the canonical form
    n, words = drawn
    code = NeuralCode.from_words(n, words)
    ideal_r = polarized_ideal(canonical_form(code), n)
    assert betti_table_oracle(ideal_r) == sweep_betti_table(ideal_r)


def test_reduced_engine_matches_plain_sweep_with_a_degree_one_generator():
    # neuron 2 is silent, so x2 is a generator and never a vertex of a restricted complex
    ideal_r = polarized_ideal(canonical_form(code_of((1,), (1, 3), n=3)), 3)
    assert any(g.degree == 1 for g in ideal_r.gens)
    assert betti_table_oracle(ideal_r) == sweep_betti_table(ideal_r)


def _edge_ideal(edges):
    # variables 0..5 are x1..x6 and 6..11 are y1..y6; x_i*y_i is no generator
    monos = set()
    for a, b in edges:
        mask = (1 << a) | (1 << b)
        monos.add(SquarefreeMonomial(mask & 0x3F, mask >> 6))
    return SquarefreeIdeal(6, tuple(monos))


EDGES = st.sets(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda p: p[0] < p[1] and p[1] - p[0] != 6),
    min_size=1,
    max_size=24,
)


@given(EDGES)
@settings(max_examples=40, deadline=None)
def test_reduced_engine_matches_plain_sweep_on_edge_ideals(edges):
    ideal_e = _edge_ideal(edges)
    assert betti_table_oracle(ideal_e) == sweep_betti_table(ideal_e)


@pytest.mark.parametrize("n", [12, 13])
def test_reduced_engine_matches_closed_form_beyond_the_plain_sweep(n):
    order, code = random_pierced_code(n, seed=3)
    ideal_r = polarized_ideal(canonical_form(code), code.n)
    assert betti_table_oracle(ideal_r) == multigraded_betti_closed(piercing_profile(order))


@st.composite
def st_ideals(draw, non_quadratic=False):
    """A squarefree ideal on n <= 6 neurons from generators of degree 1..4, made minimal."""
    n = draw(st.integers(1, 6))
    monos = []
    for _ in range(draw(st.integers(1 if non_quadratic else 0, 8))):
        support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)))
        ys = draw(st.sets(st.sampled_from(sorted(support))))
        monos.append(SquarefreeMonomial(mask_of(i + 1 for i in support - ys), mask_of(i + 1 for i in ys)))
    gens = pairwise_minimalize(monos)
    if non_quadratic:
        assume(any(g.degree != 2 for g in gens))
    return SquarefreeIdeal(n, tuple(gens))


@given(st_ideals(), st.data())
@settings(max_examples=150, deadline=None)
def test_restricted_homology_matches_the_plain_rank(ideal_r, data):
    sigma = data.draw(st.integers(0, (1 << (2 * ideal_r.n)) - 1))
    gens = [g.support_mask(ideal_r.n) for g in ideal_r.gens]
    plain = plain_homology_dims(plain_faces(gens, sigma))
    assert restricted_homology(ideal_r, sigma) == tuple(sorted(plain.items()))


@given(st_ideals().flatmap(lambda i: st.tuples(st.just(i), st.integers(0, (1 << (2 * i.n)) - 1))))
@example((SquarefreeIdeal(3, ()), 0))
@example((SquarefreeIdeal(3, ()), 0b110111))
@example((J1, 0))
@example((J1, 0b1111))
@settings(max_examples=150, deadline=None)
def test_listed_faces_equal_the_plain_faces(drawn):
    ideal_r, sigma = drawn
    gens = [g.support_mask(ideal_r.n) for g in ideal_r.gens]
    places = oracle_module._bits(sigma)
    u = len(places)
    inside = [oracle_module._renumbered(g, places) for g in gens if g & ~sigma == 0]
    faces, levels = oracle_module._face_levels(inside, oracle_module._holding(u), oracle_module._sizes(u))
    listed = [oracle_module._members(level) for level in levels]
    plain = plain_faces(gens, sigma)
    assert len(listed) == len(plain) == u + 1
    for s, (fs, ps) in enumerate(zip(listed, plain)):
        assert fs == sorted(fs) and all(f.bit_count() == s for f in fs)
        assert {sum(b for i, b in enumerate(places) if f >> i & 1) for f in fs} == set(ps)
    assert faces == sum(1 << f for fs in listed for f in fs)


@given(st_ideals(non_quadratic=True))
@settings(max_examples=60, deadline=None)
def test_reduced_engine_matches_plain_sweep_on_non_quadratic_ideals(ideal_r):
    serial = oracle_sweep(ideal_r, threads=1)
    assert oracle_sweep(ideal_r, threads=2) == serial
    assert serial[0] == sweep_betti_table(ideal_r)


def _cubic_ideal(n, count, seed):
    # count distinct random cubic generators on the 2n variables, none divisible by x_i*y_i
    rng = random.Random(seed)
    masks = []
    while len(masks) < count:
        picked = rng.sample(range(2 * n), 3)
        mask = sum(1 << v for v in picked)
        if mask not in masks and not any(abs(a - b) == n for a in picked for b in picked):
            masks.append(mask)
    return SquarefreeIdeal(n, tuple(SquarefreeMonomial(m & ((1 << n) - 1), m >> n) for m in masks))


def test_reduced_engine_on_a_face_heavy_ideal():
    # 13,447 faces shared by 196 cores: clearing and the sweep's one set of
    # boundary rows are exercised on large, deep complexes
    ideal_h = _cubic_ideal(9, 8, seed=5)
    serial = oracle_sweep(ideal_h, threads=1)
    assert serial[1]["faces"] == 13_447
    assert serial[1]["restrictions"] == serial[1]["cores"] == 196
    # every core but the one point core is excised; their faces through T
    # leave 2 ranks of 6 rows (on all of each core's faces, clearing left
    # 89,279 rows in 1,288 ranks, of the 178,188 a plain rank reduces)
    assert serial[1]["point_cores"] == 1
    assert serial[1]["excised"] == 195
    assert serial[1]["rank_calls"] == 2
    assert serial[1]["rows"] == 6
    assert oracle_sweep(ideal_h, threads=2) == serial
    assert serial[0] == sweep_betti_table(ideal_h)


@pytest.mark.parametrize("used", [0b1011011, 0b1111111])
def test_avoiding_masks_hold_the_faces_without_each_vertex(used):
    # on used vertices with gaps too, so a digit off by one vertex shows
    gens = [0b11, 0b1001000, 0b0110010]
    faces_by_size = plain_faces(gens, used)
    avoiding = oracle_module._avoiding(faces_by_size, used)
    assert sorted(avoiding) == oracle_module._bits(used)
    for v, masks in avoiding.items():
        for fs, mask in zip(faces_by_size, masks, strict=True):
            assert mask == sum(1 << i for i, f in enumerate(fs) if not f & v)


def test_oracle_counters_on_the_c11_instance():
    _, code = random_pierced_code(11, seed=3)
    ideal_c = polarized_ideal(canonical_form(code), code.n)
    _, work = oracle_sweep(ideal_c)
    assert work["restrictions"] == 40_529
    # a restriction is a cone iff its complex strong-collapses to a point,
    # whatever order the dominated vertices go in
    assert work["cones"] == 35_080
    assert work["cores"] < work["restrictions"] - work["cones"]
    # the complex on the 17 used variables has 1,024 faces, the empty one
    # included; c11 is pierced, so its complement graph is chordal and every
    # core is a point set: the 168 nonempty cores and the empty one are read
    # off by size, with no boundary rank
    assert work["faces"] == 1_024
    assert work["cores"] == work["point_cores"] == 169
    assert work["rank_calls"] == 0
    assert work["rows"] == 0


# two four-cycles on x1..x4 and x5..x8 with no edge between them: the
# generators are x1x3, x2x4, x5x7, x6x8 and each x_i*x_j with i <= 4 < j
TWO_SQUARES = ideal(8, ((1, 3), ()), ((2, 4), ()), ((5, 7), ()), ((6, 8), ()),
                    *(((i, j), ()) for i in range(1, 5) for j in range(5, 9)))


def test_sweep_builds_only_the_row_levels_a_rank_reads(monkeypatch):
    # the largest core that holds a 2-face is both squares, so the cores task
    # gets the faces of sizes 0 to 8; deleting a vertex of it leaves a square
    # and a path, which is not acyclic, so its homology takes ranks. No core
    # holds a 3-face, so every rank is of edges or of vertices, and the rows
    # of sizes 3 to 8 are never built
    sizes, built = set(), set()
    real = oracle_module._homology_dims

    def recording(faces_by_size, rows, picked):
        part = real(faces_by_size, rows, picked)
        sizes.add(len(faces_by_size) - 1)
        built.update(rows)
        return part

    monkeypatch.setattr(oracle_module, "_homology_dims", recording)
    table, work = oracle_sweep(TWO_SQUARES)
    assert table == sweep_betti_table(TWO_SQUARES)
    # 15 cores hold a 2-face; the two squares alone are excised
    assert work["cores"] - work["point_cores"] == 15 and work["excised"] == 2
    assert work["rank_calls"] == 26 and work["rows"] == 86
    assert sizes == {8} and built == {1, 2}


def _renumbered_gens(gens):
    used = 0
    for g in gens:
        used |= g
    places = oracle_module._bits(used)
    return places, [oracle_module._renumbered(g, places) for g in gens]


def _subsets_of(closure):
    """The subsets a bitset closure holds, in increasing order."""
    return [s for s, digit in enumerate(reversed(format(closure, "b"))) if digit == "1"]


def _closure_in_original_numbering(gens):
    places, renumbered = _renumbered_gens(gens)
    closure = oracle_module._support_unions(renumbered, oracle_module._holding(len(places)))
    return {sum(b for i, b in enumerate(places) if s >> i & 1) for s in _subsets_of(closure)}


# sparse generators on up to 20 variables: x and y variables interleave, so
# the used masks are not contiguous
SPARSE_GENS = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.sets(st.integers(0, 2 * n - 1), min_size=1, max_size=6), max_size=10)
).map(lambda supports: [sum(1 << v for v in support) for support in supports])


@given(SPARSE_GENS)
@settings(max_examples=60, deadline=None)
def test_bitset_closure_equals_the_set_closure(gens):
    assert _closure_in_original_numbering(gens) == set_support_unions(gens)


def test_bitset_closure_on_explicit_cases():
    assert _closure_in_original_numbering([]) == {0}
    assert _closure_in_original_numbering([0b1010]) == {0, 0b1010}
    # n = 4: x1*y3 and y2*x4, masks over bits 0..7
    xy = [(1 << 0) | (1 << 6), (1 << 5) | (1 << 3)]
    assert _closure_in_original_numbering(xy) == {0, xy[0], xy[1], xy[0] | xy[1]}
    # sparse u = 20: a 20-cycle, ten disjoint edges, five disjoint degree-4 supports
    cycle = [(1 << k) | (1 << (k + 1) % 20) for k in range(20)]
    edges = [0b11 << 2 * k for k in range(10)]
    quads = [0b1111 << 4 * k for k in range(5)]
    for gens, count in ((cycle, 76_725), (edges, 1024), (quads, 32)):
        unions = _closure_in_original_numbering(gens)
        assert len(unions) == count
        assert unions == set_support_unions(gens)


def _minimal(supports):
    masks = {sum(1 << v for v in support) for support in supports}
    return sorted(m for m in masks if not any(o != m and o & ~m == 0 for o in masks))


def _small_gens(most):
    """2 to most variables: generators of degree 1 to 4, or edges only."""
    return st.integers(2, most).flatmap(
        lambda u: st.one_of(
            st.lists(st.sets(st.integers(0, u - 1), min_size=1, max_size=4), max_size=8),
            st.lists(st.sets(st.integers(0, u - 1), min_size=2, max_size=2), max_size=16),
        )
    ).map(_minimal)


SMALL_GENS = _small_gens(10)


@given(_small_gens(8))
@settings(max_examples=100, deadline=None)
def test_dominated_masks_follow_the_facets(gens):
    # v is dominated in a union sigma iff v is in sigma and some other vertex
    # w of sigma lies in every facet of the restriction through v; the
    # facets come from the plain faces, not from the domination table
    places, gens = _renumbered_gens(gens)
    u = len(places)
    holding = oracle_module._holding(u)
    dominated = oracle_module._dominated(oracle_module._domination_table(gens, (1 << u) - 1), holding)
    for sigma in _subsets_of(oracle_module._support_unions(gens, holding)):
        faces = {f for level in plain_faces(gens, sigma) for f in level}
        facets = [f for f in faces if not any(f | x in faces for x in oracle_module._bits(sigma & ~f))]
        for i, v in enumerate(oracle_module._bits((1 << u) - 1)):
            common = sigma & ~v if sigma & v else 0
            for f in facets:
                if f & v:
                    common &= f
            assert dominated[i] >> sigma & 1 == (common != 0)


@given(SMALL_GENS)
@settings(max_examples=100, deadline=None)
def test_cores_and_groups_equal_the_plain_loop(gens):
    places, gens = _renumbered_gens(gens)
    u = len(places)
    used = (1 << u) - 1
    holding = oracle_module._holding(u)
    table = oracle_module._domination_table(gens, used)
    closure = oracle_module._support_unions(gens, holding)
    dominated = oracle_module._dominated(table, holding)
    anywhere = 0
    for d in dominated:
        anywhere |= d
    cores = _subsets_of(closure & ~anywhere)
    plain = {s: plain_core(s, table) for s in _subsets_of(closure)}
    kept = {s for s, core in plain.items() if core is not None}
    # the cores bitset holds exactly the cores the plain loop reaches
    assert set(cores) == {plain[s] for s in kept}
    # each group of cores with one homology grows to the kept unions whose
    # plain core has that homology, and the cones and groups split the unions
    faces_by_size = plain_faces(gens, used)
    masks = oracle_module._excision_masks(gens, holding, closure, dominated)
    homologies = oracle_module._core_homology((cores, faces_by_size, used, *masks))[0]
    groups = {}
    for core, dims in homologies:
        key = tuple(sorted(dims.items()))
        groups[key] = groups.get(key, 0) | 1 << core
    cones = oracle_module._grow(((1 << (1 << u)) - 1) ^ closure, dominated)
    # the acyclic subsets that excision reads are these cones
    assert masks[0] == cones.to_bytes(len(masks[0]), "little")
    parts = [cones & closure] + [oracle_module._grow(members, dominated) for members in groups.values()]
    assert sum(p.bit_count() for p in parts) == closure.bit_count()
    union = 0
    for p in parts:
        union |= p
    assert union == closure
    assert set(_subsets_of(parts[0])) == set(plain) - kept
    for dims, grown in zip(groups, parts[1:]):
        for s in _subsets_of(grown):
            assert tuple(sorted(plain_homology_dims(plain_faces(gens, plain[s])).items())) == dims


def _excision_inputs(ideal_r):
    """The renumbered generators, their vertex count, the cores and the excision masks, as the sweep builds them."""
    places, gens = _renumbered_gens([g.support_mask(ideal_r.n) for g in ideal_r.gens])
    u = len(places)
    holding = oracle_module._holding(u)
    closure = oracle_module._support_unions(gens, holding)
    dominated = oracle_module._dominated(oracle_module._domination_table(gens, (1 << u) - 1), holding)
    anywhere = 0
    for d in dominated:
        anywhere |= d
    masks = oracle_module._excision_masks(gens, holding, closure, dominated)
    return gens, u, _subsets_of(closure & ~anywhere), masks


def _bit(mask: bytes, s: int) -> bool:
    return bool(mask[s >> 3] >> (s & 7) & 1)


@given(st.one_of(st_ideals(), st_ideals(non_quadratic=True)))
@settings(max_examples=60, deadline=None)
def test_excision_masks_hold_acyclic_subsets_and_their_cone_points(ideal_r):
    gens, u, _, (acyclic, cone_points) = _excision_inputs(ideal_r)
    for s in range(1 << u):
        if not _bit(acyclic, s):
            # a subset with a cone point is a non-union, which acyclic holds
            assert not any(_bit(points, s) for points in cone_points)
            continue
        faces_by_size = plain_faces(gens, s)
        assert plain_homology_dims(faces_by_size) == {}
        # x is a cone point iff each face plus x is a face
        faces = {f for level in faces_by_size for f in level}
        for i, points in enumerate(cone_points):
            x = 1 << i
            assert _bit(points, s) == (s & x != 0 and all(f | x in faces for f in faces))


@given(st.one_of(st_ideals(), st_ideals(non_quadratic=True), EDGES.map(_edge_ideal)))
@settings(max_examples=100, deadline=None)
def test_excised_cores_have_the_plain_homology(ideal_r):
    # the faces through T give each core the homology of all its faces
    gens, u, cores, masks = _excision_inputs(ideal_r)
    used = (1 << u) - 1
    homologies, _, _, excised = oracle_module._core_homology((cores, plain_faces(gens, used), used, *masks))
    throughs = [oracle_module._excised(core, *masks) for core in cores]
    assert all(through & ~core == 0 for core, through in zip(cores, throughs))
    assert excised == sum(through != 0 for through in throughs)
    for core, dims in homologies:
        assert dims == plain_homology_dims(plain_faces(gens, core))


# the five-cycle on x1..x5 as the complex: its ten pairs less its five edges
FIVE_CYCLE = ideal(5, ((1, 3), ()), ((1, 4), ()), ((2, 4), ()), ((2, 5), ()), ((3, 5), ()))


@pytest.mark.parametrize(
    "ideal_r, core, through, dims, ranks",
    [
        # deleting any vertex leaves a square and a path, which is not
        # acyclic: edges and vertices are ranked
        (TWO_SQUARES, 0xFF, 0, {0: 1, 1: 2}, 2),
        # deleting x1 leaves a path, which collapses to a point; every later
        # deletion leaves a union with no cone point, so T = {x1}, and the
        # edges x1x2 and x1x5 are ranked against the vertex x1
        (FIVE_CYCLE, 0b11111, 0b1, {1: 1}, 1),
        # the four-cycle x1x2x3x4: deleting x1 leaves x3 a cone point, and
        # deleting x2 leaves x4 one, outside T = {x1}; the faces through
        # x1 and x2 are just the edge x1x2, a cycle with no rank
        (J1, 0b1111, 0b11, {1: 1}, 0),
    ],
)
def test_excised_vertices_of_named_cores(ideal_r, core, through, dims, ranks):
    gens, u, cores, masks = _excision_inputs(ideal_r)
    assert core in cores and oracle_module._excised(core, *masks) == through
    used = (1 << u) - 1
    homologies, rank_calls, _, excised = oracle_module._core_homology(([core], plain_faces(gens, used), used, *masks))
    assert homologies == [(core, dims)] and dims == plain_homology_dims(plain_faces(gens, core))
    assert excised == (through != 0) and rank_calls == ranks


def _cone_unions(ideal_r):
    """The cone unions the non-unions grow to under D_v and the plain loop's, each as a set of renumbered subsets."""
    places, gens = _renumbered_gens([g.support_mask(ideal_r.n) for g in ideal_r.gens])
    holding = oracle_module._holding(len(places))
    table = oracle_module._domination_table(gens, (1 << len(places)) - 1)
    closure = oracle_module._support_unions(gens, holding)
    non_unions = ((1 << (1 << len(places))) - 1) ^ closure
    grown = set(_subsets_of(closure & oracle_module._grow(non_unions, oracle_module._dominated(table, holding))))
    plain = {s for s in _subsets_of(closure) if plain_core(s, table) is None}
    return grown, plain


@given(st.one_of(st_ideals(), EDGES.map(_edge_ideal)))
@settings(max_examples=100, deadline=None)
def test_cone_prepass_equals_the_plain_loop(ideal_r):
    grown, plain = _cone_unions(ideal_r)
    assert grown == plain


def test_cone_prepass_on_explicit_cases():
    # no generators: the empty union is the only one, and no cone
    assert _cone_unions(SquarefreeIdeal(3, ())) == (set(), set())
    # x2 is a generator of degree 1, never a vertex of a restricted complex
    with_x2 = code_of((1,), (1, 3), n=3)
    assert any(g.degree == 1 for g in canonical_form(with_x2))
    four_cycle = parse_code((Path(__file__).resolve().parent.parent / "data" / "four_cycle.code").read_text())
    _, c11 = random_pierced_code(11, seed=3)
    for code in (with_x2, four_cycle, c11):
        grown, plain = _cone_unions(polarized_ideal(canonical_form(code), code.n))
        assert grown == plain
    assert len(grown) == 35_080  # c11's


def _holds_a_2_face(gens, sigma):
    faces_by_size = plain_faces(gens, sigma)
    return len(faces_by_size) > 2 and bool(faces_by_size[2])


def test_sweep_computes_homology_only_for_the_cores(monkeypatch):
    ideal_g = _general_ideal(1)
    computed = []  # per task, its cores
    real = oracle_module._core_homology

    def recording(args):
        computed.append(args[0])
        return real(args)

    monkeypatch.setattr(oracle_module, "_core_homology", recording)
    _, work = oracle_sweep(ideal_g)
    assert work["cores"] == 140 and work["point_cores"] == 3
    assert len(computed) == 1 and len(set(computed[0])) == len(computed[0]) == work["cores"] - work["point_cores"]
    # no union gets its homology computed unless no vertex is dominated in it
    # and it holds a 2-face; every such core gets it
    places, gens = _renumbered_gens([g.support_mask(ideal_g.n) for g in ideal_g.gens])
    table = oracle_module._domination_table(gens, (1 << len(places)) - 1)
    assert all(plain_core(core, table) == core and _holds_a_2_face(gens, core) for core in computed[0])
    cores = {plain_core(s, table) for s in set_support_unions(gens)} - {None}
    assert set(computed[0]) == {core for core in cores if _holds_a_2_face(gens, core)}
    # c11's cores are all point sets: none is sent
    computed.clear()
    _, code = random_pierced_code(11, seed=3)
    _, work = oracle_sweep(polarized_ideal(canonical_form(code), code.n))
    assert computed == [] and work["point_cores"] == work["cores"] == 169


# ideals whose cores are all point sets, each read off by size with no rank
POINT_CORE_IDEALS = {
    "zero": SquarefreeIdeal(2, ()),
    "one variable": ideal(1, ((1,), ())),
    "two variables": ideal(2, ((1,), (2,))),
    # x2 is a degree-1 generator: its lone vertex spans just the empty face
    "degree-1 generator": ideal(3, ((2,), ()), ((1,), (3,))),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", POINT_CORE_IDEALS)
def test_point_cores_match_the_plain_sweep(name, threads):
    ideal_p = POINT_CORE_IDEALS[name]
    table, work = oracle_sweep(ideal_p, threads=threads)
    assert table == sweep_betti_table(ideal_p)
    assert work["point_cores"] == work["cores"] and work["rank_calls"] == work["rows"] == 0


@pytest.mark.parametrize("threads", [1, 2])
def test_point_cores_and_cores_with_a_2_face_in_one_sweep(four_cycle_code, threads):
    # the four-cycle's ideal (x1*x3, x2*x4) and the disjoint edge x5*x6: the
    # cores are the 8 unions of the three, and the 4 of them that take two
    # generators or more hold a 2-face
    ideal_4 = polarized_ideal(canonical_form(four_cycle_code), four_cycle_code.n)
    ideal_p = SquarefreeIdeal(6, ideal_4.gens + (SquarefreeMonomial(mask_of((5, 6)), 0),))
    table, work = oracle_sweep(ideal_p, threads=threads)
    assert table == sweep_betti_table(ideal_p)
    assert work["cores"] == 8 and work["point_cores"] == 4


def test_sweep_of_point_cores_only_starts_no_pool(monkeypatch):
    _, code = random_pierced_code(11, seed=3)
    ideal_c = polarized_ideal(canonical_form(code), code.n)
    serial = oracle_sweep(ideal_c)

    def refuse(workers):
        raise AssertionError("a sweep with no core that holds a 2-face must not start a pool")

    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oracle_module, "_worker_pool", refuse)
    assert oracle_sweep(ideal_c, threads=2) == serial


def _general_ideal(seed):
    # a dense random code on six neurons: its canonical form is not quadratic
    rng = random.Random(seed)
    code = NeuralCode.from_words(6, rng.sample(range(1, 64), 12))
    ideal_g = polarized_ideal(canonical_form(code), 6)
    assert any(g.degree != 2 for g in ideal_g.gens)
    return ideal_g


def test_parallel_sweep_bit_identical(worked_code):
    # the pool splits the cores over the workers; neither the table nor the
    # counts may depend on that split, on quadratic and non-quadratic ideals
    # alike
    ideals = [
        polarized_ideal(canonical_form(worked_code), worked_code.n),
        _general_ideal(1),
        _general_ideal(2),
        _edge_ideal({(0, 3), (3, 8), (8, 1), (1, 10), (10, 0), (2, 4), (4, 11)}),
    ]
    for ideal_p in ideals:
        runs = [oracle_sweep(ideal_p, threads=t) for t in (1, 2, 3, 2)]
        assert runs[0] == runs[1] == runs[2] == runs[3]
        assert runs[0][0] == sweep_betti_table(ideal_p)


def _refuse_pool(threads):
    raise AssertionError("a sweep with one usable CPU must not start a pool")


class _RecordingPool:
    """A stand-in pool that runs its tasks in this process and records (workers, task) for each."""

    def __init__(self, workers, tasks):
        self.workers, self.tasks = workers, tasks

    def imap(self, func, args):
        self.tasks.extend((self.workers, a) for a in args)
        return map(func, args)


def test_sweep_splits_into_no_more_shares_than_usable_cpus(monkeypatch):
    ideal_c = _general_ideal(2)
    serial = oracle_sweep(ideal_c, threads=1)
    # one usable CPU: four workers are asked for, the sweep runs serially
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(oracle_module, "_worker_pool", _refuse_pool)
    assert oracle_sweep(ideal_c, threads=4) == serial
    # more usable CPUs than workers: one share of the cores per worker, each
    # core in one share, and the shares within one core of each other
    monkeypatch.undo()
    shares = []
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(oracle_module, "_worker_pool", lambda workers: _RecordingPool(workers, shares))
    assert oracle_sweep(ideal_c, threads=3) == serial
    assert [workers for workers, _ in shares] == [3, 3, 3]
    # the point cores are read off in the main process and are in no share
    cores = [core for _, (part, *_) in shares for core in part]
    assert len(cores) == len(set(cores)) == serial[1]["cores"] - serial[1]["point_cores"] == 221
    assert max(len(part) for _, (part, *_) in shares) - min(len(part) for _, (part, *_) in shares) <= 1
    # more workers than usable CPUs: the pool has one worker per share
    monkeypatch.undo()
    asked = []
    real = oracle_module._worker_pool
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(oracle_module, "_worker_pool", lambda workers: asked.append(workers) or real(workers))
    assert oracle_sweep(ideal_c, threads=8) == serial
    assert asked == [2]


def test_sweep_sends_no_empty_share(monkeypatch, four_cycle_code):
    # one core of the four-cycle's ideal holds a 2-face: one share goes to
    # the pool, which keeps one worker per task
    ideal_4 = polarized_ideal(canonical_form(four_cycle_code), four_cycle_code.n)
    serial = oracle_sweep(ideal_4, threads=1)
    shares = []
    monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(oracle_module, "_worker_pool", lambda workers: _RecordingPool(workers, shares))
    assert oracle_sweep(ideal_4, threads=4) == serial
    assert [(workers, len(part)) for workers, (part, *_) in shares] == [(4, 1)]


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_sweep_serially(threads):
    ideal_z = _general_ideal(1)
    assert oracle_sweep(ideal_z, threads=threads) == oracle_sweep(ideal_z, threads=1)


# a platform without fork, as far as the library can see: get_context("fork") fails
SPAWN_ONLY = """
import multiprocessing
real = multiprocessing.get_context
def no_fork(method=None):
    if method == "fork":
        raise ValueError("cannot find context for 'fork'")
    return real(method)
multiprocessing.get_context = no_fork
multiprocessing.set_start_method("spawn")
from codebetti import betti_table_oracle, canonical_form, polarized_ideal, random_pierced_code
_, code = random_pierced_code(6, seed=1)
ideal = polarized_ideal(canonical_form(code), code.n)
print(betti_table_oracle(ideal, threads=2) == betti_table_oracle(ideal, threads=1))
"""


def test_parallel_sweep_under_spawn():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SPAWN_ONLY], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


# a process that reuses, replaces and inherits the kept worker pool
POOL_LIFETIME = """
import multiprocessing, sys
from codebetti import betti_table_oracle, canonical_form, polarized_ideal, random_pierced_code
_, code = random_pierced_code(6, seed=1)
ideal = polarized_ideal(canonical_form(code), code.n)
serial = betti_table_oracle(ideal)
def child():
    sys.exit(0 if betti_table_oracle(ideal, threads=2) == serial else 1)
if __name__ == "__main__":
    same = all(betti_table_oracle(ideal, threads=t) == serial for t in (3, 2, 2))
    forked = multiprocessing.get_context("fork").Process(target=child)
    forked.start()
    forked.join(60)
    if forked.is_alive():  # stuck on the parent's pool, whose threads it lacks
        forked.kill()
        forked.join()
    print(same, forked.exitcode)
"""


def test_worker_pool_lifetime():
    # the pool serves every sweep with its thread count, a new count replaces it
    first = oracle_module._worker_pool(2)
    assert oracle_module._worker_pool(2) is first
    assert oracle_module._worker_pool(3) is not first
    with pytest.raises(ValueError):
        first.map(abs, [1])  # stopped
    # a forked child starts its own pool, and the interpreter exits quietly
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", POOL_LIFETIME], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "True 0", "")


def test_oracle_guard():
    # 21 used variables, one above MAX_ORACLE_VARS
    wide = SquarefreeIdeal(21, tuple(SquarefreeMonomial(1 << i, 0) for i in range(21)))
    with pytest.raises(GuardExceeded):
        betti_table_oracle(wide)


def test_characterization_worked(worked_code):
    verdict = regularity_characterization(worked_code)
    assert verdict.reg_of_ideal == 2
    assert verdict.pierced_by_definition and verdict.theorem_consistent


def test_characterization_four_cycle(four_cycle_code):
    verdict = regularity_characterization(four_cycle_code)
    assert verdict.reg_of_ideal == 3
    assert not verdict.pierced_by_definition and verdict.theorem_consistent


def test_characterization_rejects_cubic():
    code = code_of((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    with pytest.raises(HypothesisViolation):
        regularity_characterization(code)


def test_characterization_rejects_dirty_codes():
    with pytest.raises(HypothesisViolation):
        regularity_characterization(code_of((1,), n=2))
    with pytest.raises(HypothesisViolation):
        regularity_characterization(code_of((1,), (2,), (1, 2)))  # zero ideal

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from codebetti import (
    Graph,
    GuardExceeded,
    HypothesisViolation,
    SquarefreeIdeal,
    SquarefreeMonomial,
    betti_recursive,
    betti_table_oracle,
    canonical_form,
    chordality,
    mask_of,
    multigraded_betti_closed,
    pdim,
    piercing_profile,
    polarized_ideal,
    random_pierced_code,
    regularity,
    regularity_characterization,
    restricted_homology,
    variable_mask,
)
from conftest import code_of


def ideal(n, *gens):
    monos = []
    for xs, ys in gens:
        monos.append(SquarefreeMonomial(mask_of(xs), mask_of(ys)))
    return SquarefreeIdeal(n, tuple(monos))


J1 = ideal(4, ((1, 3), ()), ((2, 4), ()))
J2 = ideal(4, ((1, 4), ()), ((3, 4), ()))
J3 = ideal(4, ((1, 4), ()), ((4,), (3,)))


def test_restricted_homology_two_points():
    h = restricted_homology(ideal(2, ((1, 2), ())), ["x1", "x2"])
    assert h.dims == ((0, 1),)


def test_restricted_homology_full_simplex_is_contractible():
    zero = SquarefreeIdeal(3, ())
    for sigma in (["x1"], ["x1", "y2"], ["x1", "x2", "x3", "y1"]):
        assert restricted_homology(zero, sigma).dims == ()


def test_restricted_homology_four_cycle():
    h = restricted_homology(J1, ["x1", "x2", "x3", "x4"])
    assert h.dims == ((1, 1),)


def test_restricted_homology_empty_restriction():
    h = restricted_homology(SquarefreeIdeal(2, ()), [])
    assert h.dims == ((-1, 1),)


def test_restricted_homology_guard():
    with pytest.raises(GuardExceeded):
        restricted_homology(SquarefreeIdeal(16, ()), (1 << 25) - 1)


def test_variable_mask():
    assert variable_mask(4, ["x1", "y3"]) == 1 | (1 << (4 + 2))
    with pytest.raises(ValueError):
        variable_mask(2, ["z1"])


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


def test_parallel_sweep_bit_identical(worked_code):
    ideal_w = polarized_ideal(canonical_form(worked_code), worked_code.n)
    assert betti_table_oracle(ideal_w, threads=2) == betti_table_oracle(ideal_w)


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


def test_oracle_guard():
    # 21 used variables, one above MAX_ORACLE_VARS
    wide = SquarefreeIdeal(21, tuple(SquarefreeMonomial(1 << i, 0) for i in range(21)))
    with pytest.raises(GuardExceeded):
        betti_table_oracle(wide)


def test_characterization_worked(worked_code):
    verdict = regularity_characterization(worked_code)
    assert verdict.quadratic and verdict.reg_of_ideal == 2
    assert verdict.pierced_by_definition and verdict.theorem_consistent


def test_characterization_four_cycle(four_cycle_code):
    verdict = regularity_characterization(four_cycle_code)
    assert verdict.quadratic and verdict.reg_of_ideal == 3
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

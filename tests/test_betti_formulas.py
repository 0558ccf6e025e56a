from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from codebetti import (
    BettiTable,
    PiercingProfile,
    betti_recursive,
    binom,
    enumerate_pierced_codes,
    graded_betti_closed,
    invert_graded,
    invert_multigraded,
    is_inductively_pierced,
    multigraded_betti_closed,
    pdim_from_profile,
    piercing_profile,
    random_pierced_code,
    steps_for_order,
)
from conftest import grid_betti_closed

WORKED_TABLE = {
    (0, 0, 0): 1,
    (1, 2, 0): 4,
    (1, 1, 1): 1,
    (2, 3, 0): 4,
    (2, 2, 1): 2,
    (3, 4, 0): 1,
    (3, 3, 1): 1,
}


def profile_of(n, counts):
    return PiercingProfile.from_counts(n, counts)


@pytest.fixture(scope="module")
def worked_profile(worked_code):
    return piercing_profile(is_inductively_pierced(worked_code))


def test_binom_convention():
    assert binom(4, 2) == 6
    assert binom(2, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(0, 0) == 1
    assert binom(5, -2) == 0


def test_binom_identities_spot():
    # the full exhaustive loops run in the acceptance suite
    for a in range(8):
        for b in range(-1, 9):
            assert binom(a, b) + binom(a, b + 1) == binom(a + 1, b + 1)


def test_closed_form_on_worked_profile(worked_profile):
    table = multigraded_betti_closed(worked_profile)
    assert table.as_dict == WORKED_TABLE
    assert table.totals() == (1, 5, 6, 2)


def test_closed_form_trivial_profile():
    table = multigraded_betti_closed(profile_of(1, {(0, 0): 1}))
    assert table.as_dict == {(0, 0, 0): 1}


def test_closed_form_pure_x_when_never_nested():
    # every piercing with l = 0 forces all v > 0 entries to vanish
    table = multigraded_betti_closed(profile_of(3, {(0, 0): 2, (1, 0): 1}))
    assert all(v == 0 for (_, _, v) in table.as_dict)


def test_graded_closed_on_worked_profile(worked_profile):
    graded = graded_betti_closed(worked_profile)
    assert graded == {(0, 0): 1, (1, 2): 5, (2, 3): 6, (3, 4): 2}


def test_graded_closed_zero_ideal():
    graded = graded_betti_closed(profile_of(3, {(0, 0): 1, (1, 0): 1, (2, 0): 1}))
    assert graded == {(0, 0): 1}


def test_graded_closed_two_disjoint_fields():
    graded = graded_betti_closed(profile_of(2, {(0, 0): 2}))
    assert graded == {(0, 0): 1, (1, 2): 1}


def test_recursion_matches_closed_on_worked_code(worked_code, worked_profile):
    order = is_inductively_pierced(worked_code)
    assert betti_recursive(order) == multigraded_betti_closed(worked_profile)


def test_recursion_single_step():
    order, _ = random_pierced_code(1, seed=0)
    assert betti_recursive(order).as_dict == {(0, 0, 0): 1}


def test_recursion_two_disjoint_zero_piercings():
    from codebetti import PiercingOrder, PiercingStep

    order = PiercingOrder((PiercingStep(1, 0, 0), PiercingStep(2, 0, 0)))
    assert betti_recursive(order).as_dict == {(0, 0, 0): 1, (1, 2, 0): 1}


def test_recursion_is_order_independent(worked_code):
    a = betti_recursive(steps_for_order(worked_code, (1, 2, 3, 4, 5)))
    b = betti_recursive(steps_for_order(worked_code, (1, 4, 2, 3, 5)))
    assert a == b


@given(st.integers(0, 5_000), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_triple_route_agreement_random(seed, n):
    order, _ = random_pierced_code(n, seed=seed)
    closed = multigraded_betti_closed(piercing_profile(order))
    assert betti_recursive(order) == closed


@given(st.integers(0, 5_000), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_graded_aggregates_multigraded(seed, n):
    order, _ = random_pierced_code(n, seed=seed)
    prof = piercing_profile(order)
    assert multigraded_betti_closed(prof).graded() == graded_betti_closed(prof)


def test_invert_graded_worked_values():
    graded = {(1, 2): 5, (2, 3): 6, (3, 4): 2}
    assert invert_graded(graded, 5) == (1, 3, 1, 0, 0)


def test_invert_graded_zero_ideal():
    assert invert_graded({}, 3) == (1, 1, 1)


def test_invert_graded_one_pair():
    assert invert_graded({(1, 2): 1}, 2) == (2, 0)


def test_invert_graded_rejects_junk():
    with pytest.raises(ValueError):
        invert_graded({(1, 2): 7}, 3)
    with pytest.raises(ValueError):
        invert_graded({(1, 3): 1}, 3)


def test_invert_graded_refuses_a_negative_entry():
    # the marginals it would give, (0, 2), are valid, so only the entry's sign can refuse it
    with pytest.raises(ValueError, match=r"negative Betti entry at \(1, 2\): -1"):
        invert_graded({(1, 2): -1}, 2)


def test_invert_multigraded_worked(worked_profile):
    table = multigraded_betti_closed(worked_profile)
    assert invert_multigraded(table) == worked_profile


def test_invert_multigraded_base_table():
    assert invert_multigraded(BettiTable.from_dict(1, {(0, 0, 0): 1})).as_dict() == {(0, 0): 1}


def test_invert_multigraded_two_disjoint_fields():
    table = BettiTable.from_dict(2, {(0, 0, 0): 1, (1, 2, 0): 1})
    assert invert_multigraded(table).as_dict() == {(0, 0): 2}


def test_invert_multigraded_rejects_junk():
    with pytest.raises(ValueError):
        invert_multigraded(BettiTable.from_dict(2, {(0, 0, 0): 1, (1, 2, 0): 5}))


@pytest.mark.parametrize("count", [7, 2, -4])
def test_inversions_refuse_beta0_other_than_one(count):
    with pytest.raises(ValueError, match=r"graded entry \(0,0\) is"):
        invert_graded({(0, 0): count, (1, 2): 1}, 2)
    with pytest.raises(ValueError, match=r"multigraded entry \(0,0,0\) is"):
        invert_multigraded(BettiTable(2, ((0, 0, 0, count), (1, 2, 0, 1))))


def test_inversions_accept_beta0_one_or_omitted():
    assert invert_graded({(0, 0): 1, (1, 2): 1}, 2) == invert_graded({(1, 2): 1}, 2) == (2, 0)
    assert invert_graded({(0, 0): 0, (1, 2): 1}, 2) == (2, 0)
    with_beta0 = BettiTable.from_dict(2, {(0, 0, 0): 1, (1, 2, 0): 1})
    without = BettiTable.from_dict(2, {(1, 2, 0): 1})
    assert invert_multigraded(with_beta0) == invert_multigraded(without)


@pytest.mark.parametrize("extra", [(1, 3, 1), (1, 0, 2), (5, 6, 0), (1, 3, -1)])
def test_invert_multigraded_refuses_entries_off_the_strand(extra):
    # every other entry is the worked example's table, which inverts cleanly
    with pytest.raises(ValueError, match=r"entry \(.*\) is off the linear strand"):
        invert_multigraded(BettiTable.from_dict(5, {**WORKED_TABLE, extra: 1}))


def test_invert_graded_refuses_strand_entries_beyond_n():
    with pytest.raises(ValueError, match=r"entry \(5,6\) is off the linear strand"):
        invert_graded({(1, 2): 5, (2, 3): 6, (3, 4): 2, (5, 6): 1}, 5)


@given(st.integers(0, 5_000), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_roundtrips_random(seed, n):
    order, _ = random_pierced_code(n, seed=seed)
    prof = piercing_profile(order)
    assert invert_multigraded(multigraded_betti_closed(prof)) == prof
    assert invert_graded(graded_betti_closed(prof), n) == prof.jk


def test_pdim_from_profile_examples(worked_profile):
    assert pdim_from_profile(worked_profile) == 3
    assert pdim_from_profile(profile_of(3, {(0, 0): 1, (1, 0): 1, (2, 0): 1})) == 0
    assert pdim_from_profile(profile_of(3, {(0, 0): 3})) == 2


@given(st.integers(0, 5_000), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_pdim_matches_table_top(seed, n):
    order, _ = random_pierced_code(n, seed=seed)
    prof = piercing_profile(order)
    table = multigraded_betti_closed(prof)
    top = max((w for w, _, _, _ in table.entries), default=0)
    assert pdim_from_profile(prof) == top


@given(st.integers(0, 5_000), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_linear_strand_signature(seed, n):
    order, _ = random_pierced_code(n, seed=seed)
    table = multigraded_betti_closed(piercing_profile(order))
    for (w, u, v), c in table.as_dict.items():
        assert c > 0
        assert (w, u, v) == (0, 0, 0) or (u + v == w + 1 and u > 0)


def test_table_views(worked_profile):
    table = multigraded_betti_closed(worked_profile)
    payload = table.to_json_dict()
    assert payload["total"] == [1, 5, 6, 2]
    assert [1, 2, 5] in payload["graded"]
    assert [1, 1, 1, 1] in payload["multigraded"]
    triangle = table.render_triangle()
    assert "total" in triangle and "5" in triangle


def closed_or_error(closed, profile):
    try:
        return closed(profile)
    except ValueError:
        return ValueError


def test_closed_form_equals_grid_on_enumerated_profiles():
    profiles = {piercing_profile(is_inductively_pierced(code)) for code in enumerate_pierced_codes(5)}
    for prof in profiles:
        assert multigraded_betti_closed(prof) == grid_betti_closed(prof)


def test_closed_form_equals_grid_on_random_codes():
    for n in range(1, 17):
        for seed in range(5):
            prof = piercing_profile(random_pierced_code(n, seed=seed)[0])
            assert multigraded_betti_closed(prof) == grid_betti_closed(prof)


@st.composite
def arbitrary_profiles(draw, max_n=9):
    """Any counts PiercingProfile.from_counts accepts; most are not from a pierced code."""
    n = draw(st.integers(1, max_n))
    kinds = st.integers(0, n - 1).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, n - 1 - k)))
    return PiercingProfile.from_counts(n, Counter(draw(st.lists(kinds, min_size=n, max_size=n))))


@given(arbitrary_profiles())
@settings(max_examples=200, deadline=None)
def test_closed_form_equals_grid_or_both_refuse(prof):
    assert closed_or_error(multigraded_betti_closed, prof) == closed_or_error(grid_betti_closed, prof)

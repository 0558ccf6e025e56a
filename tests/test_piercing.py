import random

import pytest
from hypothesis import given, settings, strategies as st

from codebetti import piercing
from codebetti import (
    DiagnosticsError,
    NeuralCode,
    PiercingStep,
    build_code,
    delete_neuron,
    detect_piercing,
    enumerate_pierced_codes,
    is_inductively_pierced,
    is_inductively_pierced_fast,
    iter_piercing_orders,
    mask_of,
    piercing_profile,
    random_pierced_code,
    steps_for_order,
    validate_code,
)
from conftest import backtracking_piercing_orders, code_of

TRIVIAL = NeuralCode(0, frozenset({0}))


def test_detect_worked_code(worked_code):
    step = detect_piercing(worked_code, 5)
    assert step == PiercingStep(5, mask_of((3,)), mask_of((2, 3)))
    assert step.k == 1 and step.ell == 1


def test_detect_two_piercing():
    c4 = code_of((1,), (2,), (3,), (4,), (1, 2), (2, 3), (1, 4), (2, 4), (1, 2, 4), n=4)
    step = detect_piercing(c4, 4)
    assert step == PiercingStep(4, 0, mask_of((1, 2)))
    assert step.k == 2 and step.ell == 0


def test_detect_lone_zero_piercing():
    assert detect_piercing(code_of((1,)), 1) == PiercingStep(1, 0, 0)


def test_detect_silent_neuron_errors():
    with pytest.raises(ValueError):
        detect_piercing(code_of((1,), n=2), 2)


def test_detect_rejects_non_piercing():
    code = code_of((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    for i in (1, 2, 3):
        assert detect_piercing(code, i) is None


def test_worked_code_is_pierced(worked_code):
    order = is_inductively_pierced(worked_code)
    assert order is not None
    assert build_code(order.steps) == worked_code


def test_trivial_code_is_pierced():
    order = is_inductively_pierced(TRIVIAL)
    assert order is not None and order.steps == ()


def test_cubic_code_is_not_pierced():
    code = code_of((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    assert is_inductively_pierced(code) is None
    fast = is_inductively_pierced_fast(code)
    assert not fast and 3 in fast.cf_degrees


def test_four_cycle_not_pierced(four_cycle_code):
    assert is_inductively_pierced(four_cycle_code) is None
    fast = is_inductively_pierced_fast(four_cycle_code)
    assert not fast
    assert fast.chordless_cycle is not None and len(fast.chordless_cycle) == 4


def test_fast_accepts_worked_code(worked_code):
    fast = is_inductively_pierced_fast(worked_code)
    assert fast and fast.ordering is not None
    assert fast.cf_degrees == (2, 2, 2, 2, 2)


def test_fast_accepts_trivial():
    assert is_inductively_pierced_fast(TRIVIAL)


def test_diagnostics_preconditions():
    with pytest.raises(DiagnosticsError):
        is_inductively_pierced(code_of((1,), n=2))
    with pytest.raises(DiagnosticsError):
        is_inductively_pierced_fast(code_of((1, 2), n=2))


def test_steps_for_order_accepts_both_published_orders(worked_code):
    a = steps_for_order(worked_code, (1, 2, 3, 4, 5))
    b = steps_for_order(worked_code, (1, 4, 2, 3, 5))
    assert a is not None and b is not None
    assert piercing_profile(a) == piercing_profile(b)
    assert steps_for_order(worked_code, (5, 3, 1, 2, 4)) is None


def test_worked_profile_values(worked_code):
    prof = piercing_profile(steps_for_order(worked_code, (1, 2, 3, 4, 5)))
    assert prof.as_dict() == {(0, 0): 1, (1, 0): 2, (1, 1): 1, (2, 0): 1}
    assert prof.jk == (1, 3, 1, 0, 0)


def test_profile_single_step():
    prof = piercing_profile(is_inductively_pierced(code_of((1,))))
    assert prof.as_dict() == {(0, 0): 1}


def test_build_code_examples():
    assert build_code([PiercingStep(1, 0, 0)]) == code_of((1,))
    two = build_code([PiercingStep(1, 0, 0), PiercingStep(2, 0, mask_of((1,)))])
    assert two == code_of((1,), (2,), (1, 2))


def test_build_code_rejects_bad_steps():
    with pytest.raises(ValueError):
        build_code([PiercingStep(1, 0, 0), PiercingStep(1, 0, 0)])
    with pytest.raises(ValueError):
        build_code([PiercingStep(1, 0, 0), PiercingStep(2, mask_of((3,)), mask_of((3,)))])


@given(st.integers(0, 10_000), st.integers(1, 6))
def test_random_codes_replay_and_are_pierced(seed, n):
    order, code = random_pierced_code(n, seed=seed)
    assert build_code(order.steps) == code
    assert is_inductively_pierced(code) is not None
    assert validate_code(code).clean


def test_random_code_deterministic():
    assert random_pierced_code(5, seed=7) == random_pierced_code(5, seed=7)


def test_random_code_single_neuron():
    order, code = random_pierced_code(1, seed=123)
    assert order.steps == (PiercingStep(1, 0, 0),)
    assert code == code_of((1,))


def test_random_code_kmax_zero():
    order, code = random_pierced_code(3, kmax=0, seed=5)
    assert all(s.k == 0 for s in order.steps)
    assert is_inductively_pierced(code) is not None


def test_random_code_refuses_negative_kmax():
    with pytest.raises(ValueError, match="kmax must be at least 0, got -1"):
        random_pierced_code(3, kmax=-1, seed=5)


def test_random_code_refuses_a_negative_seed():
    # random.Random(-7) is seeded as random.Random(7)
    with pytest.raises(ValueError, match="seed must be at least 0, got -7"):
        random_pierced_code(6, seed=-7)


@given(st.integers(0, 2_000), st.integers(2, 5))
@settings(max_examples=60)
def test_profile_marginals(seed, n):
    order, code = random_pierced_code(n, seed=seed)
    prof = piercing_profile(order)
    assert sum(prof.jk) == n
    for (k, l), c in prof.jkl:
        assert c > 0 and l <= n - 1 - k


@given(st.integers(0, 500), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_order_invariance_of_profiles(seed, n):
    _, code = random_pierced_code(n, seed=seed)
    profiles = {piercing_profile(o) for o in iter_piercing_orders(code)}
    assert len(profiles) == 1


@given(st.integers(0, 500), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_every_enumerated_order_replays(seed, n):
    _, code = random_pierced_code(n, seed=seed)
    for order in iter_piercing_orders(code):
        assert build_code(order.steps) == code


def _all_codes(n):
    full = (1 << n) - 1
    for bits in range(1 << full):
        words = frozenset({0} | {w for w in range(1, full + 1) if bits >> (w - 1) & 1})
        yield NeuralCode(n, words)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fast_agrees_with_definition_exhaustively(n):
    for code in _all_codes(n):
        if not validate_code(code).clean:
            continue
        assert (is_inductively_pierced(code) is not None) == bool(
            is_inductively_pierced_fast(code)
        )


def test_fast_agrees_on_1000_seeded_random_codes():
    agree = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        words = frozenset({0} | {rng.randrange(1 << n) for _ in range(rng.randint(1, 20))})
        code = NeuralCode(n, words)
        if not validate_code(code).clean:
            continue
        assert (is_inductively_pierced(code) is not None) == bool(
            is_inductively_pierced_fast(code)
        ), sorted(words)
        agree += 1
    assert agree > 500  # the filter should not silently starve the check


def test_enumerate_pierced_codes_small():
    codes = list(enumerate_pierced_codes(2))
    assert codes[0] == TRIVIAL
    assert code_of((1,)) in codes
    two_neuron = {c for c in codes if c.n == 2}
    assert two_neuron == {
        code_of((1,), (2,), n=2),
        code_of((1,), (2,), (1, 2), n=2),
        code_of((1,), (1, 2), n=2),
    }


def test_enumerate_respects_rank_cap():
    for code in enumerate_pierced_codes(4, max_rank=1):
        order = is_inductively_pierced(code)
        assert order is not None


def _seeded_codes(count):
    """Clean codes on 4..7 neurons: random word sets, and pierced codes with one word toggled or not."""
    rng = random.Random(20)
    out = []
    while len(out) < count:
        n = rng.randint(4, 7)
        if rng.random() < 0.5:
            words = frozenset({0} | {rng.randrange(1 << n) for _ in range(rng.randint(n, 3 * n))})
        else:
            words = random_pierced_code(n, seed=rng.randrange(10_000))[1].words
            if rng.random() < 0.5:
                words = words ^ {rng.randrange(1, 1 << n)}
        code = NeuralCode(n, words)
        if validate_code(code).clean:
            out.append(code)
    return out


def _peel_corpus():
    yield from (c for n in (1, 2, 3) for c in _all_codes(n) if validate_code(c).clean)
    yield from enumerate_pierced_codes(4)
    yield from _seeded_codes(1000)


def test_peel_finds_the_backtracking_search_first_order():
    pierced = 0
    for code in _peel_corpus():
        expected = next(backtracking_piercing_orders(code), None)
        assert is_inductively_pierced(code) == expected, sorted(code.words)
        if expected is not None:
            pierced += 1
            assert steps_for_order(code, expected.order) == expected
    assert pierced > 500  # pierced and non-pierced codes both reach the check


def test_deleting_any_neuron_of_a_pierced_code_leaves_it_pierced():
    # the lemma the peel rests on, checked with the backtracking reference
    codes = [c for c in enumerate_pierced_codes(4) if c.n == 4]
    codes += [random_pierced_code(n, seed=seed)[1] for n in (6, 8) for seed in range(20)]
    for code in codes:
        for i in range(1, code.n + 1):
            assert next(backtracking_piercing_orders(delete_neuron(code, i)), None) is not None


def test_iter_piercing_orders_lists_the_backtracking_search_orders(four_cycle_code, monkeypatch):
    codes = list(enumerate_pierced_codes(4)) + [random_pierced_code(n, seed=seed)[1] for n in (5, 6) for seed in range(5)]
    for code in codes:
        assert list(iter_piercing_orders(code)) == list(backtracking_piercing_orders(code))
    # the four-cycle with five more neurons pierced onto it: no order, as
    # deleting them would leave a pierced four-cycle
    grown = NeuralCode(9, four_cycle_code.words | {mask_of(w) for w in [(1, 5), (2, 3, 6), (7,), (8,), (7, 8), (3, 4, 9)]})
    assert validate_code(grown).clean
    for code in (four_cycle_code, grown):
        assert list(iter_piercing_orders(code)) == [] == list(backtracking_piercing_orders(code))
    # one walk that ends at the first stuck stage: at most one detection
    # per neuron left at each stage, never a branch past a stuck one
    calls = []
    detect = piercing._detect_on_words
    monkeypatch.setattr(piercing, "_detect_on_words", lambda words, i: calls.append(i) or detect(words, i))
    for code in (four_cycle_code, grown):
        for run in (lambda: list(iter_piercing_orders(code)), lambda: is_inductively_pierced(code)):
            calls.clear()
            assert not run()
            assert 0 < len(calls) <= code.n * (code.n + 1) // 2

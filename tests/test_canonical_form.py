import random

import pytest
from hypothesis import given, strategies as st

from codebetti import (
    NeuralCode,
    PseudoMonomial,
    canonical_form,
    enumerate_pierced_codes,
    mask_of,
    random_pierced_code,
)
from conftest import WORKED_CF, code_of, pairwise_canonical_form, sweep_canonical_form


def test_vanishing_semantics():
    assert PseudoMonomial(mask_of((1, 3)), 0).vanishes_on(mask_of((1, 2)))
    assert PseudoMonomial(mask_of((5,)), mask_of((3,))).vanishes_on(mask_of((3, 5)))
    assert not PseudoMonomial(mask_of((5,)), mask_of((3,))).vanishes_on(mask_of((5,)))


def test_divides():
    assert PseudoMonomial(1, 0).divides(PseudoMonomial(mask_of((1, 3)), 0))
    assert not PseudoMonomial(1, 2).divides(PseudoMonomial(1, 0))
    assert PseudoMonomial(mask_of((5,)), mask_of((3,))).divides(
        PseudoMonomial(mask_of((1, 5)), mask_of((3,)))
    )


def test_disjointness_enforced():
    with pytest.raises(ValueError):
        PseudoMonomial(1, 1)


def test_render():
    assert PseudoMonomial(mask_of((1, 3)), 0).render() == "x1*x3"
    assert PseudoMonomial(mask_of((5,)), mask_of((3,))).render() == "x5*(1-x3)"
    assert PseudoMonomial(0, mask_of((2,))).render() == "(1-x2)"


def test_worked_code_cf(worked_code):
    assert [f.render() for f in canonical_form(worked_code)] == WORKED_CF


def test_worked_code_cf_is_quadratic(worked_code):
    assert all(f.degree == 2 for f in canonical_form(worked_code))


def test_nested_code_cf():
    cf = canonical_form(code_of((1,), (1, 2), (1, 2, 3)))
    assert [f.render() for f in cf] == ["x2*(1-x1)", "x3*(1-x1)", "x3*(1-x2)"]


def test_full_code_has_zero_ideal():
    full = code_of((1,), (2,), (1, 2))
    assert canonical_form(full) == ()


def test_cf_vanishes_everywhere(worked_code):
    for f in canonical_form(worked_code):
        assert f.vanishes_on_code(worked_code)


st_codes = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        lambda ws: NeuralCode(n, frozenset(ws | {0})),
        st.sets(st.integers(0, (1 << n) - 1), max_size=10),
    )
)


@given(st_codes)
def test_cf_is_an_antichain(code):
    cf = canonical_form(code)
    for f in cf:
        for g in cf:
            if f is not g:
                assert not f.divides(g)


@given(st_codes)
def test_cf_elements_vanish(code):
    for f in canonical_form(code):
        assert f.vanishes_on_code(code)


def _all_disjoint_pairs(n):
    for supp in range(1 << n):
        sub = supp
        while True:
            yield sub, supp & ~sub
            if sub == 0:
                break
            sub = (sub - 1) & supp


@given(st_codes)
def test_cf_complete_on_small_codes(code):
    # every vanishing disjoint pair must be divisible by a canonical element
    cf = canonical_form(code)
    for sigma, tau in _all_disjoint_pairs(code.n):
        if sigma == 0 and tau == 0:
            continue
        f = PseudoMonomial(sigma, tau)
        if f.vanishes_on_code(code):
            assert any(g.divides(f) for g in cf)
        else:
            assert not any(g.divides(f) for g in cf)


st_codes_upto7 = st.integers(0, 7).flatmap(
    lambda n: st.builds(
        lambda ws: NeuralCode(n, frozenset(ws | {0})),
        st.sets(st.integers(0, (1 << n) - 1), max_size=40),
    )
)


@given(st_codes_upto7)
def test_cf_matches_sweep_on_random_codes(code):
    assert canonical_form(code) == sweep_canonical_form(code)


def test_cf_matches_sweep_on_every_small_pierced_code():
    codes = list(enumerate_pierced_codes(4))
    assert len(codes) > 200
    for code in codes:
        assert canonical_form(code) == sweep_canonical_form(code)


@pytest.mark.parametrize("n", range(1, 12))
def test_cf_matches_sweep_on_random_pierced_codes(n):
    _, code = random_pierced_code(n, seed=n)
    assert canonical_form(code) == sweep_canonical_form(code)


# (n, words): past the 3^n sweep's reach; the pairwise loop takes up to about 1 s on the largest
@pytest.mark.parametrize(
    "n, k", [(8, 20), (8, 150), (9, 20), (9, 150), (10, 20), (10, 80), (10, 150), (11, 20), (11, 80), (12, 20), (12, 50)]
)
def test_cf_matches_pairwise_loop_on_dense_codes_beyond_the_sweep(n, k):
    words = random.Random(1000 * n + k).sample(range(1, 1 << n), k)
    code = NeuralCode(n, frozenset(words) | {0})
    assert canonical_form(code) == pairwise_canonical_form(code)


def test_cf_of_pierced_code_at_cap_is_every_vanishing_quadratic():
    # n=16 is beyond the sweep's reach. Once the CF is known to be quadratic, no
    # degree-one term vanishes, so every vanishing degree-two term is minimal.
    _, code = random_pierced_code(16, seed=3)
    cf = canonical_form(code)
    assert cf == pairwise_canonical_form(code)
    assert all(f.degree == 2 and f.vanishes_on_code(code) for f in cf)
    quadratics = set()
    for i in range(16):
        for j in range(i + 1, 16):
            a, b = 1 << i, 1 << j
            for sigma, tau in ((a | b, 0), (a, b), (b, a), (0, a | b)):
                f = PseudoMonomial(sigma, tau)
                if f.vanishes_on_code(code):
                    quadratics.add(f)
    assert set(cf) == quadratics
    assert len(cf) == len(quadratics)

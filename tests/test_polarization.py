import pytest
from hypothesis import given, settings, strategies as st

from codebetti import (
    IdealParseError,
    PiercingStep,
    PseudoMonomial,
    SquarefreeIdeal,
    SquarefreeMonomial,
    canonical_form,
    depolarize,
    extend_ideal,
    ideal_from_steps,
    mask_of,
    parse_ideal,
    piercing_variables,
    polarize,
    polarized_ideal,
    random_pierced_code,
)
from codebetti.polarization import minimalize
from conftest import code_of, pairwise_generator_check, pairwise_minimalize


def test_polarize_examples():
    assert polarize(PseudoMonomial(mask_of((5,)), mask_of((3,)))) == SquarefreeMonomial(
        mask_of((5,)), mask_of((3,))
    )
    assert polarize(PseudoMonomial(1, 0)).render() == "x1"
    assert polarize(PseudoMonomial(mask_of((1, 3)), 0)).render() == "x1*x3"


def test_depolarize_examples():
    assert depolarize(SquarefreeMonomial(mask_of((5,)), mask_of((3,)))).render() == "x5*(1-x3)"
    assert depolarize(SquarefreeMonomial(mask_of((1, 3)), 0)).render() == "x1*x3"
    with pytest.raises(ValueError):
        depolarize(SquarefreeMonomial(mask_of((2,)), mask_of((2,))))


@given(st.integers(0, 255), st.integers(0, 255))
def test_polarize_depolarize_inverse(a, b):
    f = PseudoMonomial(a & ~b, b & ~a)
    assert depolarize(polarize(f)) == f
    m = SquarefreeMonomial(a & ~b, b & ~a)
    assert polarize(depolarize(m)) == m


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_polarize_preserves_divisibility_and_degree(a, b, c, d):
    f = PseudoMonomial(a & ~b, b & ~a)
    g = PseudoMonomial(c & ~d, d & ~c)
    assert polarize(f).degree == f.degree
    assert polarize(f).divides(polarize(g)) == f.divides(g)


def test_polarized_ideal_of_worked_code(worked_code):
    ideal = polarized_ideal(canonical_form(worked_code), worked_code.n)
    assert ideal.render() == "x1*x3, x3*x4, x5*y3, x1*x5, x4*x5"


def test_polarized_zero_ideal():
    assert polarized_ideal((), 3).is_zero


def test_polarized_nested_code():
    ideal = polarized_ideal(canonical_form(code_of((1,), (1, 2), (1, 2, 3))), 3)
    assert {g.render() for g in ideal.gens} == {"x3*y2", "x2*y1", "x3*y1"}


def test_ideal_rejects_non_antichain():
    with pytest.raises(ValueError):
        SquarefreeIdeal(2, (SquarefreeMonomial(1, 0), SquarefreeMonomial(3, 0)))


def test_ideal_rejects_xy_overlap():
    with pytest.raises(ValueError):
        SquarefreeIdeal(2, (SquarefreeMonomial(1, 1),))


def _refusal(n, gens):
    try:
        SquarefreeIdeal(n, tuple(gens))
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def st_generators(draw):
    """n in 1..8 and fresh generators of degree 1..6, each split into an x part and a y part."""
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(0, 12))):
        support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(6, n)))
        ys = draw(st.sets(st.sampled_from(sorted(support))))
        gens.append(SquarefreeMonomial(mask_of(i + 1 for i in support - ys), mask_of(i + 1 for i in ys)))
    return n, gens


@given(st_generators())
@settings(max_examples=300)
def test_minimality_check_matches_the_pairwise_loop(drawn):
    n, gens = drawn
    assert _refusal(n, gens) == pairwise_generator_check(n, gens)


@pytest.mark.parametrize(
    "gens, message",
    [
        # a repeated generator divides its copy
        ([(1, 2), (1, 2)], "x1*y2 divides x1*y2: generators are not minimal"),
        # degree 5 against one generator below it
        ([(0b00111, 0b11000), (1, 0)], "x1 divides x1*x2*x3*y4*y5: generators are not minimal"),
        # degree 2 against three generators below it
        ([(2, 0), (4, 0), (0b1001, 0), (1, 0)], "x1 divides x1*x4: generators are not minimal"),
        # the first divisor in generator order is named, though x2 divides an earlier multiple
        ([(0b0110, 0), (0b1001, 0), (1, 0), (2, 0)], "x1 divides x1*x4: generators are not minimal"),
        ([(32, 0)], "generator x6 uses variables beyond n=5"),
        ([(1, 0), (0, 0)], "the unit ideal is not representable"),
        ([(1, 1)], "generator x1*y1 is divisible by some x_i*y_i"),
    ],
)
def test_minimality_check_refusals(gens, message):
    monos = [SquarefreeMonomial(x, y) for x, y in gens]
    assert _refusal(5, monos) == message == pairwise_generator_check(5, monos)


def test_minimality_check_refuses_one_object_passed_twice():
    # the all-pairs loop compared positions by identity and accepted this
    g = SquarefreeMonomial(1, 2)
    assert _refusal(2, [g, g]) == "x1*y2 divides x1*y2: generators are not minimal"


@pytest.mark.parametrize("n", [0, 3])
def test_ideal_without_generators(n):
    assert SquarefreeIdeal(n, ()).is_zero


def test_minimality_check_on_a_sixteen_neuron_code():
    order, code = random_pierced_code(16, kmax=1, seed=3)
    cf = canonical_form(code)
    gens = [polarize(f) for f in cf]
    assert pairwise_generator_check(16, gens) is None
    ideal = polarized_ideal(cf, 16)
    assert ideal.gens == tuple(sorted(gens, key=SquarefreeMonomial.sort_key))
    assert ideal == ideal_from_steps(order.steps)


def normalized(n):
    """Neurons 1..n-1: the existing set when the newest neuron is n."""
    return (1 << (n - 1)) - 1


def test_piercing_ideal_examples():
    step = PiercingStep(5, mask_of((3,)), mask_of((2, 3)))
    got = piercing_variables(step, normalized(5))
    assert [v.render() for v in got] == ["x1", "x4", "y3"]

    assert piercing_variables(PiercingStep(1, 0, 0), normalized(1)) == ()

    step = PiercingStep(4, 0, mask_of((1, 2)))
    assert [v.render() for v in piercing_variables(step, normalized(4))] == ["x3"]


def test_piercing_ideal_cardinality():
    # (n-1-k-l) x's plus l y's
    step = PiercingStep(6, mask_of((1, 2)), mask_of((1, 2, 3)))
    got = piercing_variables(step, normalized(6))
    xs = [v for v in got if v.xsupp]
    ys = [v for v in got if v.ysupp]
    assert len(xs) == 6 - 1 - step.k - step.ell and len(ys) == step.ell


def test_extend_ideal_worked_final_step():
    J4 = SquarefreeIdeal(
        4, (SquarefreeMonomial(mask_of((1, 3)), 0), SquarefreeMonomial(mask_of((3, 4)), 0))
    )
    got = extend_ideal(J4, PiercingStep(5, mask_of((3,)), mask_of((2, 3))))
    assert {g.render() for g in got.gens} == {"x1*x3", "x3*x4", "x1*x5", "x4*x5", "x5*y3"}


def test_extend_zero_by_first_step():
    got = extend_ideal(SquarefreeIdeal(0, ()), PiercingStep(1, 0, 0))
    assert got.is_zero


def test_extend_by_full_rank_piercing_adds_nothing():
    J = SquarefreeIdeal(3, (SquarefreeMonomial(mask_of((1, 2)), 0),))
    step = PiercingStep(4, 0, mask_of((1, 2, 3)))
    assert extend_ideal(J, step).gens == J.gens


def test_extend_rejects_inconsistent_step():
    J = SquarefreeIdeal(2, (SquarefreeMonomial(mask_of((1, 2)), 0),))
    with pytest.raises(ValueError):
        extend_ideal(J, PiercingStep(2, 0, mask_of((1,))))


def test_piercing_variables_general_existing_set():
    # adding neuron 2 when {1, 4} already exist
    step = PiercingStep(2, 0, mask_of((1, 4)))
    assert piercing_variables(step, mask_of((1, 4))) == ()
    step = PiercingStep(2, 0, mask_of((4,)))
    assert [v.render() for v in piercing_variables(step, mask_of((1, 4)))] == ["x1"]


@given(st.integers(0, 10_000), st.integers(1, 6))
def test_step_fold_matches_cf_pipeline(seed, n):
    order, code = random_pierced_code(n, seed=seed)
    via_steps = ideal_from_steps(order.steps)
    via_cf = polarized_ideal(canonical_form(code), code.n)
    assert via_steps == via_cf


def test_fold_along_non_label_order(worked_code):
    from codebetti import steps_for_order

    order = steps_for_order(worked_code, (1, 4, 2, 3, 5))
    assert order is not None
    assert ideal_from_steps(order.steps) == polarized_ideal(
        canonical_form(worked_code), worked_code.n
    )


def test_parse_ideal_roundtrip():
    ideal = parse_ideal("x1*x4\nx4*y3\n")
    assert ideal.n == 4
    assert {g.render() for g in ideal.gens} == {"x1*x4", "x4*y3"}
    assert parse_ideal("\n".join(g.render() for g in ideal.gens)) == ideal
    with pytest.raises(IdealParseError):
        parse_ideal("x1*z2\n")
    with pytest.raises(IdealParseError):
        parse_ideal("n=2\nx3\n")


@pytest.mark.parametrize("body, refusal", [("x1*x1*x2\nx2*x3\n", "line 1: x1"), ("x2*x3\nx1*y3*x2*y3\n", "line 2: y3")])
def test_parse_ideal_refuses_a_variable_twice_in_one_monomial(body, refusal):
    # read once, the repeat would give the radical's ideal
    with pytest.raises(IdealParseError, match=f"^{refusal} appears twice: the monomial is not squarefree$"):
        parse_ideal(body)


def test_parse_ideal_reduces_redundant_generators():
    ideal = parse_ideal("x1\nx1*x2\n")
    assert ideal.render() == "x1"


@given(st_generators())
@settings(max_examples=300)
def test_minimalize_matches_the_pairwise_loop(drawn):
    # the draws repeat and divide one another; two copies are appended as well
    _, monos = drawn
    monos = monos + [SquarefreeMonomial(m.xsupp, m.ysupp) for m in monos[:2]]
    assert minimalize(monos) == pairwise_minimalize(monos)


def test_minimalize_drops_multiples_of_lower_degrees():
    monos = [SquarefreeMonomial(x, 0) for x in (0b1110, 0b0011, 0b0100, 0b0110, 0b1000, 0b0011)]
    # x3 goes first and takes x2*x3 and x2*x3*x4 with it; x1*x2 and x4 stay
    assert [m.render() for m in minimalize(monos)] == ["x3", "x4", "x1*x2"]


def test_step_validation():
    with pytest.raises(ValueError):
        PiercingStep(2, mask_of((1, 2)), mask_of((1, 2)))  # tau contains the new neuron
    with pytest.raises(ValueError):
        PiercingStep(3, mask_of((1,)), mask_of((2,)))  # sigma not inside tau


@pytest.mark.parametrize("body, line", [("x2*x3\nx1*y1\n", "line 2: x1 and y1"), ("y2*x3*x2\n", "line 1: x2 and y2")])
def test_parse_ideal_refuses_x_and_y_of_one_neuron(body, line):
    # SquarefreeIdeal does not represent a multiple of x_i*y_i; the reader names the line
    with pytest.raises(IdealParseError, match=f"^{line} appear together: a generator may not hold both$"):
        parse_ideal(body)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SquarefreeMonomial(-1, 0), "negative support mask"),
        (lambda: SquarefreeMonomial(0, -2), "negative support mask"),
        (lambda: PiercingStep(0, 0, 0), "neuron index must be positive"),
        (
            lambda: piercing_variables(PiercingStep(3, 0, mask_of((2,))), mask_of((1,))),
            "step 3: sigma={} tau={2} k=1 l=0: pierces neurons that are not present yet",
        ),
        (lambda: piercing_variables(PiercingStep(2, 0, 1), mask_of((1, 2))), "neuron 2 is already present"),
        # step 2 adjoins x1*x2, a multiple of the previous ideal's x1
        (
            lambda: extend_ideal(SquarefreeIdeal(1, (SquarefreeMonomial(1, 0),)), PiercingStep(2, 0, 0)),
            "inconsistent piercing step: x1 divides x1*x2: generators are not minimal",
        ),
    ],
)
def test_public_refusals(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message

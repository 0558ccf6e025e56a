import pytest
from hypothesis import given, strategies as st

from codebetti import (
    CodeFormatWarning,
    CodeParseError,
    NeuralCode,
    delete_neuron,
    enumerate_interval,
    mask_of,
    parse_code,
    serialize_code,
    validate_code,
)
from conftest import code_of


def test_parse_basic():
    code = parse_code("0\n1\n2\n1 2\n")
    assert code.n == 2
    assert code.words == frozenset({0b00, 0b01, 0b10, 0b11})


def test_parse_worked_code(worked_code):
    assert worked_code.n == 5
    assert len(worked_code.words) == 12
    assert mask_of((2, 3, 5)) in worked_code.words


def test_parse_rejects_garbage():
    with pytest.raises(CodeParseError):
        parse_code("x\n")
    with pytest.raises(CodeParseError):
        parse_code("-1\n")
    with pytest.raises(CodeParseError):
        parse_code("n=2\n1 3\n")
    with pytest.raises(CodeParseError):
        parse_code("n=3\n1\nn=4\n")


def test_parse_enforces_neuron_cap():
    with pytest.raises(CodeParseError):
        parse_code("17\n")
    with pytest.raises(CodeParseError):
        parse_code("n=17\n1\n")


@pytest.mark.parametrize("text", [f"0\n{10**12}\n", f"n=3\n1 {10**12}\n", "n=3\n4\n"])
def test_parse_rejects_index_above_cap_or_header(text):
    # 1 << (10**12 - 1) would need about 125 GB; the index is refused before any shift
    with pytest.raises(CodeParseError, match="exceeds"):
        parse_code(text)


def test_parse_inserts_empty_word_with_warning():
    with pytest.warns(CodeFormatWarning):
        code = parse_code("1\n")
    assert 0 in code.words


def test_parse_header_and_comments():
    code = parse_code("# comment\nn=3\n0\n1\n")
    assert code.n == 3
    assert code.words == frozenset({0, 1})


def test_empty_word_required():
    with pytest.raises(ValueError):
        NeuralCode(1, frozenset({1}))


st_codes = st.integers(1, 5).flatmap(
    lambda n: st.builds(
        lambda ws: NeuralCode(n, frozenset(ws | {0})),
        st.sets(st.integers(0, (1 << n) - 1), max_size=12),
    )
)


@given(st_codes)
def test_roundtrip_serialize_parse(code):
    assert parse_code(serialize_code(code)) == code


def test_delete_worked_example(worked_code):
    # dropping the highest neuron needs no relabeling
    got = delete_neuron(worked_code, 5)
    assert got == code_of((1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 3), (2, 4), (1, 2, 4), n=4)


def test_delete_single_neuron():
    assert delete_neuron(code_of((1,)), 1) == NeuralCode(0, frozenset({0}))


def test_delete_merges_duplicates():
    assert delete_neuron(code_of((1,), (2,), (1, 2)), 2) == code_of((1,), n=1)


def test_delete_keep_index():
    got = delete_neuron(code_of((1,), (2,), (1, 2)), 2, reindex=False)
    assert got == code_of((1,), n=2)
    assert validate_code(got).silent == (2,)


def test_delete_reindexes_higher_neurons():
    got = delete_neuron(code_of((1,), (3,), (1, 3)), 2)
    assert got == code_of((1,), (2,), (1, 2))


@given(st_codes, st.integers(1, 5))
def test_delete_idempotent_in_effect(code, i):
    if i > code.n:
        return
    once = delete_neuron(code, i, reindex=False)
    assert delete_neuron(once, i, reindex=False) == once


def test_interval_examples():
    assert enumerate_interval(0, mask_of((1, 2))) == [0, 1, 2, 3]
    assert enumerate_interval(mask_of((3,)), mask_of((2, 3))) == [mask_of((3,)), mask_of((2, 3))]
    assert enumerate_interval(1, 1) == [1]
    with pytest.raises(ValueError):
        enumerate_interval(1, 2)


@given(st.integers(0, 255), st.integers(0, 255))
def test_interval_size_and_membership(a, b):
    sigma, tau = a & b, a | b
    got = enumerate_interval(sigma, tau)
    assert len(got) == 1 << (tau & ~sigma).bit_count()
    assert len(set(got)) == len(got)
    for g in got:
        assert sigma & ~g == 0 and g & ~tau == 0


def test_validate_clean(worked_code):
    diag = validate_code(worked_code)
    assert diag.clean


def test_validate_silent():
    assert validate_code(code_of((1,), n=2)).silent == (2,)


def test_validate_duplicates():
    diag = validate_code(code_of((1, 2), n=2))
    assert diag.duplicate_pairs == ((1, 2),)

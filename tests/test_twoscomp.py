"""Two's-complement integers; the canonicality rules, the chain builder and
the class-call references of the smart constructors are in ``tests/shared.py``."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from numrep import binary, costmeter, twoscomp, unary
from numrep.twoscomp import CanonicalityError, Even, MinusOne, Odd, Zero
from shared import (
    RULES, TAILS, assert_builds_as, assert_the_same_with_the_class_call_references, canonical_by_the_rules,
    reference_even, reference_twoscomp_odd, wrap,
)


def test_negative_value_shapes():
    assert twoscomp.from_int(-1) == MinusOne()
    assert twoscomp.from_int(-2) == Even(MinusOne())
    assert twoscomp.from_int(-3) == Odd(Even(MinusOne()))
    assert twoscomp.from_int(-4) == Even(Even(MinusOne()))
    assert twoscomp.from_int(-5) == Odd(Odd(Even(MinusOne())))


def test_nonnegative_values_are_binary_naturals():
    assert twoscomp.from_int(0) == Zero()
    assert twoscomp.from_int(4) == Even(Even(Odd(Zero())))
    for n in (0, 1, 2, 3, 4, 17, 256):
        assert twoscomp.from_int(n) == binary.from_int(n)


def test_minus_100_roundtrips_and_is_canonical():
    v = twoscomp.from_int(-100)
    assert twoscomp.to_int(v) == -100
    assert twoscomp.is_canonical(v)


@given(st.integers(-100_000, 100_000))
def test_int_roundtrip(n):
    v = twoscomp.from_int(n)
    assert twoscomp.to_int(v) == n
    assert twoscomp.is_canonical(v)


def test_is_canonical():
    assert twoscomp.is_canonical(MinusOne())
    assert not twoscomp.is_canonical(Odd(MinusOne()))
    assert twoscomp.is_canonical(Even(MinusOne()))
    assert not twoscomp.is_canonical(Even(Zero()))


def test_to_int_rejects_non_canonical():
    with pytest.raises(CanonicalityError):
        twoscomp.to_int(Odd(MinusOne()))
    # the error message embeds the value's repr, 1000 digits deep here
    v = Odd(MinusOne())
    for _ in range(999):
        v = Even(v)
    with pytest.raises(CanonicalityError):
        twoscomp.to_int(v)


LAYERS = pytest.mark.parametrize("layer", RULES, ids=["binary", "twoscomp"])


def chain_value(digits, tail):
    """digit i weighs 2**i, and a MinusOne tail -2**len(digits)."""
    value = int("".join("1" if d is Odd else "0" for d in reversed(digits)) or "0", 2)
    return value - (1 << len(digits)) if type(tail) is MinusOne else value


@LAYERS
@given(st.lists(st.sampled_from([Even, Odd]), max_size=12), st.sampled_from(TAILS))
@example([Odd, Even], Zero())
@example([Even, Odd], MinusOne())
@example([Odd], unary.Zero())
@example([], 5)
def test_to_int_raises_exactly_when_not_canonical(layer, digits, tail):
    v = wrap(digits, tail)
    assert layer.is_canonical(v) == canonical_by_the_rules(layer, v)
    if layer.is_canonical(v):
        assert layer.to_int(v) == chain_value(digits, tail)
    else:
        with pytest.raises(CanonicalityError):
            layer.to_int(v)


@LAYERS
@pytest.mark.parametrize("inner, tail", [
    (Odd, Zero()), (Even, Zero()), (Even, MinusOne()), (Odd, MinusOne()), (Odd, unary.Zero()),
])
def test_to_int_at_100000_digits(layer, inner, tail):
    digits = [Odd, Even] * 49_999 + [Even, inner]
    v = wrap(digits, tail)
    if canonical_by_the_rules(layer, v):
        assert layer.is_canonical(v)
        assert layer.to_int(v) == chain_value(digits, tail)
    else:
        assert not layer.is_canonical(v)
        with pytest.raises(CanonicalityError):
            layer.to_int(v)


def test_complement_small():
    assert twoscomp.complement(Zero()) == MinusOne()
    assert twoscomp.complement(Odd(Zero())) == Even(MinusOne())  # ~1 = -2


@given(st.integers(-512, 512))
def test_complement_is_minus_n_minus_1(n):
    v = twoscomp.from_int(n)
    assert twoscomp.to_int(twoscomp.complement(v)) == -n - 1
    assert twoscomp.complement(twoscomp.complement(v)) == v


def test_add1_sub1_small():
    assert twoscomp.add1(MinusOne()) == Zero()
    assert twoscomp.sub1(Zero()) == MinusOne()
    assert twoscomp.add1(twoscomp.from_int(7)) == twoscomp.from_int(8)


@given(st.integers(-256, 256))
def test_add1_sub1_invert_each_other(n):
    v = twoscomp.from_int(n)
    assert twoscomp.to_int(twoscomp.add1(v)) == n + 1
    assert twoscomp.to_int(twoscomp.sub1(v)) == n - 1
    assert twoscomp.add1(twoscomp.sub1(v)) == v
    assert twoscomp.sub1(twoscomp.add1(v)) == v


def test_add_zero_is_first_clause():
    x = twoscomp.from_int(-7)
    assert twoscomp.add(x, Zero()) is x


def test_add_minus_one_twice():
    assert twoscomp.add(MinusOne(), MinusOne()) == Even(MinusOne())  # -2


def test_add_mixed_signs():
    assert twoscomp.add(twoscomp.from_int(-5), twoscomp.from_int(3)) == twoscomp.from_int(-2)


def test_full_clause_table_against_machine_integers():
    # exhaustive sweep pinning every digit-pair clause, both signs
    for a in range(-256, 257):
        x = twoscomp.from_int(a)
        for b in range(-256, 257):
            got = twoscomp.add(x, twoscomp.from_int(b))
            assert twoscomp.to_int(got) == a + b, (a, b)


@given(st.integers(-256, 256), st.integers(-256, 256))
def test_add_plus1_agrees_with_machine_addition(a, b):
    got = twoscomp.add_plus1(twoscomp.from_int(a), twoscomp.from_int(b))
    assert twoscomp.to_int(got) == a + b + 1


def test_neg_small():
    assert twoscomp.neg(Zero()) == Zero()
    assert twoscomp.neg(twoscomp.from_int(5)) == twoscomp.from_int(-5)


def test_sub_small():
    assert twoscomp.sub(twoscomp.from_int(3), twoscomp.from_int(10)) == twoscomp.from_int(-7)


@given(st.integers(-256, 256), st.integers(-256, 256))
def test_neg_sub_agree_with_machine_arithmetic(a, b):
    x, y = twoscomp.from_int(a), twoscomp.from_int(b)
    assert twoscomp.to_int(twoscomp.neg(x)) == -a
    assert twoscomp.to_int(twoscomp.sub(x, y)) == a - b


@given(st.integers(0, 256), st.integers(0, 256))
def test_nonnegative_add_matches_binary_algorithm(a, b):
    x, y = binary.from_int(a), binary.from_int(b)
    assert twoscomp.add(x, y) == binary.add_v2(x, y)


@given(st.integers(-256, 256), st.integers(-256, 256))
def test_operations_preserve_canonicality(a, b):
    x, y = twoscomp.from_int(a), twoscomp.from_int(b)
    for v in (twoscomp.add(x, y), twoscomp.sub(x, y), twoscomp.neg(x),
              twoscomp.add1(x), twoscomp.sub1(x), twoscomp.complement(x)):
        assert twoscomp.is_canonical(v)


BIT_TABLE = {
    3: "...011",
    2: "...010",
    1: "...01",
    0: "...0",
    -1: "...11",
    -2: "...10",
    -3: "...101",
    -4: "...100",
    -5: "...1011",
}


def test_bit_strings_match_fixed_table():
    for n, expected in BIT_TABLE.items():
        assert twoscomp.render_bits(twoscomp.from_int(n)) == expected


def test_bit_rendering_injective():
    rendered = {twoscomp.render_bits(twoscomp.from_int(n)) for n in range(-512, 513)}
    assert len(rendered) == 1025


@given(st.integers(-4096, 4096))
def test_bit_string_roundtrip(n):
    v = twoscomp.from_int(n)
    assert twoscomp.parse_bits(twoscomp.render_bits(v)) == v


def test_parse_bits_normalizes_redundant_tail_copies():
    assert twoscomp.parse_bits("...0011") == twoscomp.from_int(3)
    assert twoscomp.parse_bits("...111") == MinusOne()


def test_parse_bits_rejects_garbage():
    for bad in ("1011", "...", "...2", "...0x1"):
        with pytest.raises(ValueError):
            twoscomp.parse_bits(bad)


@pytest.mark.parametrize("op, args", [
    (twoscomp.complement, ("x",)),
    (twoscomp.complement, (Even(Odd("x")),)),
    (twoscomp.add1, (Odd(Odd("x")),)),
    (twoscomp.sub1, (Even(Even("x")),)),
    (twoscomp.add, (Even(Zero()), 3)),
    (twoscomp.add, (MinusOne(), 3)),
    (twoscomp.add, (Odd(Odd(Zero())), Even(Odd("y")))),
    (twoscomp.add_plus1, (Odd(Zero()), 3)),
    (twoscomp.add_plus1, (Zero(), 3)),
    (twoscomp.add_plus1, (Odd(Even(Zero())), Odd("y"))),
])
def test_foreign_values_raise_type_error(op, args):
    with pytest.raises(TypeError):
        op(*args)


def test_wildcard_clauses_accept_any_value():
    assert twoscomp.add(3, Zero()) == 3
    assert twoscomp.add(Zero(), "y") == "y"
    assert twoscomp.add_plus1("x", MinusOne()) == "x"
    assert twoscomp.add_plus1(MinusOne(), "y") == "y"


def test_smart_constructors_build_the_digits_of_the_class_call_references():
    for x in [Zero(), MinusOne(), *map(twoscomp.from_int, range(-1024, 1025))]:
        assert_builds_as(twoscomp.even, reference_even, x)
        assert_builds_as(twoscomp.odd, reference_twoscomp_odd, x)


def signed_results_and_steps():
    """Every result of add, add1, sub1, neg and sub, and every metered step
    count of add, over operands -64..64."""
    xs = [twoscomp.from_int(n) for n in range(-64, 65)]
    out = {}
    for x in xs:
        for op in (twoscomp.add1, twoscomp.sub1, twoscomp.neg):
            out[op.__name__, x] = op(x)
        for y in xs:
            out["sub", x, y] = twoscomp.sub(x, y)
            out["add", x, y] = costmeter.measured("i_add", x, y)
            assert twoscomp.add(x, y) == out["add", x, y][0]
    return out


def test_ops_build_and_count_the_same_with_the_class_call_references():
    assert_the_same_with_the_class_call_references(signed_results_and_steps)

"""Binary naturals; the chain builder and the class-call references of the
smart constructors are in ``tests/shared.py``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numrep import binary, costmeter, unary
from numrep.binary import CanonicalityError, Even, Odd, Zero
from shared import (
    assert_builds_as, assert_the_same_with_the_class_call_references, binary_digits, reference_binary_odd,
    reference_even, wrap,
)


def test_small_value_shapes():
    assert binary.from_int(0) == Zero()
    assert binary.from_int(1) == Odd(Zero())
    assert binary.from_int(2) == Even(Odd(Zero()))
    assert binary.from_int(3) == Odd(Odd(Zero()))
    assert binary.from_int(4) == Even(Even(Odd(Zero())))


def test_five_matches_divmod_oracle():
    assert binary_digits(5) == [Odd, Even, Odd]
    assert binary.from_int(5) == Odd(Even(Odd(Zero())))


def test_1024_is_ten_doublings_of_one():
    expected = Odd(Zero())
    for _ in range(10):
        expected = Even(expected)
    assert binary.from_int(1024) == expected
    assert binary.size(binary.from_int(1024)) == 11


@given(st.integers(0, 100_000))
def test_from_int_matches_divmod_oracle(n):
    assert binary.from_int(n) == wrap(binary_digits(n), Zero())


def test_from_int_rejects_negative():
    with pytest.raises(ValueError):
        binary.from_int(-3)


@given(st.integers(0, 100_000))
def test_int_roundtrip(n):
    assert binary.to_int(binary.from_int(n)) == n


def test_to_int_rejects_non_canonical():
    with pytest.raises(CanonicalityError):
        binary.to_int(Even(Zero()))
    # the error message embeds the value's repr, 1000 digits deep here
    with pytest.raises(CanonicalityError):
        binary.to_int(wrap([Odd] * 999 + [Even], Zero()))


def test_is_canonical():
    assert binary.is_canonical(Zero())
    assert not binary.is_canonical(Even(Zero()))
    assert binary.is_canonical(Even(Odd(Zero())))
    assert not binary.is_canonical(Odd(Even(Zero())))


def test_add1_clause_shapes():
    assert binary.add1(Zero()) == Odd(Zero())
    assert binary.add1(Even(Odd(Zero()))) == Odd(Odd(Zero()))  # 2 -> 3
    assert binary.add1(Odd(Odd(Zero()))) == Even(Even(Odd(Zero())))  # 3 -> 4, full carry


@given(st.integers(0, 5000))
def test_add1_agrees_with_machine_increment(n):
    assert binary.to_int(binary.add1(binary.from_int(n))) == n + 1


def test_add_v1_zero_is_first_clause():
    x = binary.from_int(11)
    assert binary.add_v1(x, Zero()) is x


def test_add_v1_one_plus_one():
    assert binary.add_v1(Odd(Zero()), Odd(Zero())) == Even(Odd(Zero()))


def test_add_v1_small_sum():
    assert binary.add_v1(binary.from_int(13), binary.from_int(29)) == binary.from_int(42)


def test_add_plus1_base():
    assert binary.add_plus1(Zero(), Zero()) == Odd(Zero())


def test_add_v2_with_carry():
    # 3 + 1 = 4
    assert binary.add_v2(Odd(Odd(Zero())), Odd(Zero())) == Even(Even(Odd(Zero())))


@given(st.integers(0, 512), st.integers(0, 512))
def test_add_variants_agree_with_machine_addition(a, b):
    x, y = binary.from_int(a), binary.from_int(b)
    r1 = binary.add_v1(x, y)
    r2 = binary.add_v2(x, y)
    assert binary.to_int(r1) == a + b
    assert r1 == r2


@given(st.integers(0, 512), st.integers(0, 512))
def test_add_plus1_agrees_with_machine_addition(a, b):
    assert binary.to_int(binary.add_plus1(binary.from_int(a), binary.from_int(b))) == a + b + 1


def test_mult_annihilator_and_identity():
    x = binary.from_int(37)
    assert binary.mult(x, Zero()) == Zero()
    y = binary.from_int(29)
    assert binary.mult(Odd(Zero()), y) == y


def test_mult_small_product():
    assert binary.mult(binary.from_int(12), binary.from_int(11)) == binary.from_int(132)


@given(st.integers(0, 128), st.integers(0, 128))
def test_mult_agrees_with_machine_multiplication(a, b):
    assert binary.to_int(binary.mult(binary.from_int(a), binary.from_int(b))) == a * b


def test_size_small():
    assert binary.size(Zero()) == 0
    assert binary.size(Odd(Zero())) == 1
    assert binary.size(Even(Zero())) == 1  # a non-canonical chain counts its constructors


@given(st.integers(1, 4096))
def test_size_is_bit_length(n):
    assert binary.size(binary.from_int(n)) == n.bit_length()


@given(st.integers(0, 512), st.integers(0, 512))
def test_operations_preserve_canonicality(a, b):
    x, y = binary.from_int(a), binary.from_int(b)
    assert binary.is_canonical(binary.add_v1(x, y))
    assert binary.is_canonical(binary.add_v2(x, y))
    assert binary.is_canonical(binary.add_plus1(x, y))
    assert binary.is_canonical(binary.add1(x))
    assert binary.is_canonical(binary.mult(x, y))


# A foreign value in a structural position fits no clause and raises
# TypeError, at the top of the call or deep in the recursion.
@pytest.mark.parametrize("op, args", [
    (binary.add1, ("x",)),
    (binary.add1, (Odd(Odd("x")),)),
    (binary.add_v1, (Even(Zero()), 3)),
    (binary.add_v1, (Odd(Odd(Zero())), Odd(Even(3)))),
    (binary.add_v2, (Even(Odd(Zero())), 3)),
    (binary.add_v2, (Odd(Odd(Zero())), Odd(Odd(3)))),
    (binary.add_plus1, (Zero(), 3)),
    (binary.add_plus1, (3, Zero())),
    (binary.add_plus1, (Odd(Even(Zero())), Odd("y"))),
    (binary.mult, (Zero(), "y")),
    (binary.mult, (Odd(Zero()), Even(Odd("y")))),
    (binary.add_v2, (binary.from_int(2**500 - 1), object())),
    (binary.size, (5,)),
    (binary.size, ("x",)),
    (binary.size, (unary.from_int(3),)),
    (binary.size, (Odd("x"),)),
])
def test_foreign_values_raise_type_error(op, args):
    with pytest.raises(TypeError):
        op(*args)


def test_size_names_the_foreign_tail():
    with pytest.raises(TypeError, match=r"^not a binary natural: 'x'$"):
        binary.size(Odd(Even(Odd("x"))))


def test_wildcard_clauses_accept_any_value():
    assert binary.add_v1(3, Zero()) == 3
    assert binary.add_v1(Zero(), "y") == "y"
    assert binary.add_v2(3, Zero()) == 3
    assert binary.add_v2(Zero(), "y") == "y"
    assert binary.mult("x", Zero()) == Zero()


@pytest.mark.parametrize("n, shown, with_noun", [
    (0, "0", "0"), (-5, "-5", "-5"), (10**100 - 1, "9" * 100, "9" * 100),
    (1 - 10**100, "-" + "9" * 100, "-" + "9" * 100), (float("-inf"), "-inf", "-inf"),
    (10**100, "of 333 bits", "a number of 333 bits"), (-10**100, "of 333 bits", "a number of 333 bits"),
], ids=["0", "-5", "100-digits", "-100-digits", "-inf", "101-digits", "-101-digits"])
def test_a_message_names_a_number_by_its_decimal_up_to_100_digits(n, shown, with_noun):
    assert binary._number(n) == shown
    assert binary._number(n, "a number") == with_noun


def test_a_message_quotes_at_most_60_characters():
    assert binary._shown("x" * 60) == "x" * 60
    assert binary._shown("x" * 61) == "x" * 60 + "..."


def test_smart_constructors_build_the_digits_of_the_class_call_references():
    for x in [Zero(), *map(binary.from_int, range(1025))]:
        assert_builds_as(binary.even, reference_even, x)
        assert_builds_as(binary.odd, reference_binary_odd, x)


def results_and_steps():
    """Every result and metered step count of add1, add_v1, add_v2 and mult
    over operands 0..64."""
    xs = [binary.from_int(n) for n in range(65)]
    out = {}
    for x in xs:
        out["add1", x] = costmeter.measured("b_add1", x)
        assert binary.add1(x) == out["add1", x][0]
        for y in xs:
            for op_id in ("b_add_v1", "b_add_v2", "b_mult"):
                out[op_id, x, y] = costmeter.measured(op_id, x, y)
                entry = costmeter.METERED[op_id]
                assert entry(x, y) == out[op_id, x, y][0]
    return out


def test_ops_build_and_count_the_same_with_the_class_call_references():
    assert_the_same_with_the_class_call_references(results_and_steps)

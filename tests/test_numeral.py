"""Equality, hashing and repr of the numeral constructors at any length."""

import contextlib

import pytest

from numrep import binary, braun, costmeter, twoscomp, unary

CHAIN_CLASSES = [
    unary.Zero, unary.Succ, binary.Zero, binary.Even, binary.Odd,
    twoscomp.MinusOne, braun.IxZero, braun.IxOdd, braun.IxEven,
]

DIGITS = 100_000
LONG_VALUES = {
    "binary": lambda: binary.from_int(2**DIGITS - 1),
    "twoscomp": lambda: twoscomp.from_int(-(2**DIGITS) + 1),
    "unary": lambda: unary.from_int(DIGITS),
    "cd": lambda: braun.cd_from_int(2**DIGITS),
}
CONTEXTS = {"default limit": contextlib.nullcontext, "deep_recursion": costmeter.deep_recursion}


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("kind", LONG_VALUES)
def test_long_values_compare_hash_and_print(kind, context):
    x, y = LONG_VALUES[kind](), LONG_VALUES[kind]()
    with CONTEXTS[context]():
        assert x == y
        assert not x != y
        assert hash(x) == hash(y)
        text = repr(x)
    assert text == repr(y)
    # one constructor and its ")" per link, the innermost spelled "()"
    assert text.count(")") == text.count("(")
    assert text.count("(") > DIGITS


def test_long_values_differing_next_to_the_innermost_digit_are_unequal():
    x = binary.from_int(2**DIGITS - 1)
    y = binary.from_int(2**DIGITS - 1 - 2 ** (DIGITS - 2))
    assert x != y
    assert not x == y


@pytest.mark.parametrize("value, text", [
    (unary.Zero(), "Zero()"),
    (unary.Succ(unary.Zero()), "Succ(pred=Zero())"),
    (binary.Zero(), "Zero()"),
    (binary.Even(binary.Odd(binary.Zero())), "Even(rest=Odd(rest=Zero()))"),
    (binary.Odd(binary.Zero()), "Odd(rest=Zero())"),
    (twoscomp.MinusOne(), "MinusOne()"),
    (binary.Even(twoscomp.MinusOne()), "Even(rest=MinusOne())"),
    (braun.IxZero(), "IxZero()"),
    (braun.IxOdd(braun.IxZero()), "IxOdd(rest=IxZero())"),
    (braun.IxEven(braun.IxZero()), "IxEven(rest=IxZero())"),
    (braun.IxEven(braun.IxOdd(None)), "IxEven(rest=IxOdd(rest=None))"),
    (binary.Odd("x"), "Odd(rest='x')"),
])
def test_repr_is_the_dataclass_form(value, text):
    assert repr(value) == text


def test_equality_is_structural_and_type_exact():
    assert binary.Even(binary.Zero()) != binary.Odd(binary.Zero())
    assert binary.Zero() != unary.Zero()
    assert braun.IxZero() != binary.Zero()
    assert binary.Odd(binary.Zero()) != binary.Odd(twoscomp.MinusOne())
    assert binary.Odd(binary.Zero()) != binary.Odd(binary.Odd(binary.Zero()))
    assert binary.Zero() != 0
    assert binary.from_int(6) == binary.Even(binary.Odd(binary.Odd(binary.Zero())))
    assert binary.Odd("x") == binary.Odd("x")
    assert binary.Odd(1) == binary.Odd(1.0)


def test_equal_values_hash_equal_and_deduplicate():
    values = [f(n) for f in (binary.from_int, unary.from_int, braun.cd_from_int)
              for n in range(50)] + [twoscomp.from_int(n) for n in range(-50, 0)]
    again = [f(n) for f in (binary.from_int, unary.from_int, braun.cd_from_int)
             for n in range(50)] + [twoscomp.from_int(n) for n in range(-50, 0)]
    assert all(hash(a) == hash(b) for a, b in zip(values, again))
    assert len(set(values + again)) == len(values)
    assert len({binary.Zero(), unary.Zero(), braun.IxZero(), twoscomp.MinusOne()}) == 4


@pytest.mark.parametrize("cls", CHAIN_CLASSES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_one_base_defines_the_dunders_and_nodes_have_no_dict(cls):
    assert issubclass(cls, binary.Numeral)
    for name in ("__eq__", "__hash__", "__repr__"):
        assert name not in vars(cls)
    node = cls(*[binary.Zero()] * len(cls.__slots__))
    assert not hasattr(node, "__dict__")

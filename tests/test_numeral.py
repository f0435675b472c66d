"""Equality, hashing, repr, pickle and deepcopy of the numeral constructors at any length."""

import contextlib
import copy
import pickle

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


@contextlib.contextmanager
def within_the_recursion_limit(what):
    """Fail with one line if the block hits the recursion limit."""
    try:
        yield
    except RecursionError:
        # without the traceback: pytest's report of a RecursionError compares
        # the locals of its ~1000 frames, here values of 100,000 digits
        raise AssertionError(f"{what} hit the recursion limit") from None


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("kind", LONG_VALUES)
def test_long_values_compare_hash_and_print(kind, context):
    x, y = LONG_VALUES[kind](), LONG_VALUES[kind]()
    with CONTEXTS[context](), within_the_recursion_limit(f"==, hash or repr of a {DIGITS}-digit {kind} value"):
        assert x == y
        assert not x != y
        assert hash(x) == hash(y)
        text = repr(x)
    assert text == repr(y)
    # one constructor and its ")" per link, the innermost spelled "()"
    assert text.count(")") == text.count("(")
    assert text.count("(") > DIGITS


ROUND_TRIPS = {
    **{f"pickle{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("kind", LONG_VALUES)
def test_long_values_pickle_and_deepcopy(kind, how):
    x = LONG_VALUES[kind]()
    with within_the_recursion_limit(f"{how} of a {DIGITS}-digit {kind} value"):
        again = ROUND_TRIPS[how](x)
    assert type(again) is type(x)
    assert again == x


# protocol 2 pickle of SMALL_VALUES in the nested (cls, (child,)) form that
# numerals had before they reduced to a flat tuple of classes plus a tail
NESTED_PICKLE = (
    b"\x80\x02(cnumrep.binary\nEven\nq\x00cnumrep.binary\nOdd\nq\x01h\x01cnumrep.binary\nZero"
    b"\nq\x02)Rq\x03\x85q\x04Rq\x05\x85q\x06Rq\x07\x85q\x08Rq\th\x01h\x00cnumrep.twoscomp\n"
    b"MinusOne\nq\n)Rq\x0b\x85q\x0cRq\r\x85q\x0eRq\x0fcnumrep.unary\nSucc\nq\x10h\x10cnumrep."
    b"unary\nZero\nq\x11)Rq\x12\x85q\x13Rq\x14\x85q\x15Rq\x16cnumrep.braun\nIxOdd\nq\x17cnum"
    b"rep.braun\nIxEven\nq\x18cnumrep.braun\nIxZero\nq\x19)Rq\x1a\x85q\x1bRq\x1c\x85q\x1dRq"
    b"\x1etq\x1f."
)
SMALL_VALUES = (
    binary.from_int(6), twoscomp.from_int(-3), unary.from_int(2), braun.cd_from_int(5),
)


def test_pickles_in_the_nested_form_still_load():
    assert pickle.loads(NESTED_PICKLE) == SMALL_VALUES


def test_long_values_differing_next_to_the_innermost_digit_are_unequal():
    x = binary.from_int(2**DIGITS - 1)
    y = binary.from_int(2**DIGITS - 1 - 2 ** (DIGITS - 2))
    with within_the_recursion_limit(f"== or != of two {DIGITS}-digit binary values"):
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

"""Equality, hashing, repr, pickle and deepcopy of the numeral constructors at any length.

The chain walkers and equality are checked against per-node references
over the wrappers and tails of ``tests/shared.py``, which also holds the
unary and canonicality references.
"""

import contextlib
import copy
import pickle
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numrep import binary, braun, costmeter, twoscomp, unary
from numrep.binary import CanonicalityError
from shared import TAILS, WRAPPERS, Digit, Layer, canonical_by_the_rules, outcome, unary_layers, wrap

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


@pytest.mark.parametrize("share", [False, True], ids=["distinct chains", "one shared tail"])
def test_long_chains_compare_at_the_default_recursion_limit(share):
    # two 100,000-layer unary chains: fresh layers over one tower numeral,
    # or fresh all the way down; the tail is Zero either way
    base = unary.from_int(50_000) if share else unary.Zero()
    x, y = base, base if share else unary.Zero()
    for _ in range(DIGITS - (50_000 if share else 0)):
        x, y = unary.Succ(x), unary.Succ(y)
    z = unary.Succ(y.pred.pred)  # one layer shorter than y
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        with within_the_recursion_limit(f"== or != of two {DIGITS}-layer unary chains"):
            assert x == y and not x != y
            assert x != z and not x == z
    finally:
        sys.setrecursionlimit(limit)


def test_a_subclass_that_adds_no_field_walks_its_inherited_child():
    one, three = Digit(binary.Odd(binary.Zero())), Digit(binary.Odd(binary.Odd(binary.Zero())))
    assert one != three and not one == three
    assert one == Digit(binary.Odd(binary.Zero()))
    assert one != binary.Even(binary.Odd(binary.Zero()))  # type-exact
    assert repr(one) == "Digit(rest=Odd(rest=Zero()))"
    assert hash(one) == hash(Digit(binary.Odd(binary.Zero())))
    assert pickle.loads(pickle.dumps(three)) == three


# Per-node versions of the chain walkers, kept as their reference: each
# reads the chain one node a step, with none of the walker's runs or
# short-cuts, and raises as its walker does.  The value is the definition
# read one node a call; the unary count and the canonicality rules are
# shared.unary_layers and shared.canonical_by_the_rules.
def reference_value(x, tails):
    """The digits of x over its tail, whose value tails gives by class."""
    if type(x) is binary.Even:
        return 2 * reference_value(x.rest, tails)
    if type(x) is binary.Odd:
        return 2 * reference_value(x.rest, tails) + 1
    return tails[type(x)]


def reference_binary_to_int(x):
    if not canonical_by_the_rules(binary, x):
        raise CanonicalityError(f"non-canonical binary natural: {x!r}")
    return reference_value(x, {binary.Zero: 0})


def reference_twoscomp_to_int(x):
    if not canonical_by_the_rules(twoscomp, x):
        raise CanonicalityError(f"non-canonical two's-complement value: {x!r}")
    return reference_value(x, {binary.Zero: 0, twoscomp.MinusOne: -1})


def reference_eq(a, b):
    """Type-exact and structural: the same class and equal first fields,
    down to a nullary class; a value that is not a numeral compares as itself."""
    if not isinstance(a, binary.Numeral) or not isinstance(b, binary.Numeral):
        return a == b
    if type(a) is not type(b):
        return False
    fields = type(a).__match_args__
    return not fields or reference_eq(getattr(a, fields[0]), getattr(b, fields[0]))


def innermost(x):
    """What x's first fields lead to: a nullary numeral or a value that is not one."""
    while isinstance(x, binary.Numeral) and type(x).__match_args__:
        x = getattr(x, type(x).__match_args__[0])
    return x


WALKERS = {
    "unary.to_int": (unary.to_int, unary_layers),
    "binary.to_int": (binary.to_int, reference_binary_to_int),
    "twoscomp.to_int": (twoscomp.to_int, reference_twoscomp_to_int),
    "binary.is_canonical": (binary.is_canonical, lambda x: canonical_by_the_rules(binary, x)),
    "twoscomp.is_canonical": (twoscomp.is_canonical, lambda x: canonical_by_the_rules(twoscomp, x)),
}


# canonical values of every kind, and any wrappers over any tail: chains
# of one kind that break its rule, chains mixing kinds and subclasses
CHAINS = st.one_of(
    st.integers(0, 300).map(unary.from_int),
    st.integers(0, 2 ** 64).map(binary.from_int),
    st.integers(-(2 ** 64), 2 ** 64).map(twoscomp.from_int),
    st.integers(0, 2 ** 64).map(braun.cd_from_int),
    st.builds(wrap, st.lists(st.sampled_from([binary.Even, binary.Odd]), max_size=12),
              st.sampled_from([binary.Zero(), twoscomp.MinusOne()])),
    st.builds(wrap, st.lists(st.sampled_from(WRAPPERS), max_size=12), st.sampled_from(TAILS)),
    st.sampled_from(TAILS),
)


@given(CHAINS)
@example(unary.Succ(Layer(unary.Zero())))
@example(Layer(unary.Zero()))
@example(binary.Odd(Digit(binary.Zero())))
@example(binary.Even(binary.Zero()))
@example(binary.Odd(twoscomp.MinusOne()))
@example(binary.Even(5))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_walkers_match_their_per_node_references(value):
    for name, (walker, reference) in WALKERS.items():
        assert outcome(walker, value) == outcome(reference, value), name


@st.composite
def chain_pairs(draw):
    """Two chains, each of its own wrappers over one tail object, or two
    independent chains."""
    if draw(st.booleans()):
        return draw(CHAINS), draw(CHAINS)
    tail = draw(CHAINS)
    same = st.lists(st.sampled_from(WRAPPERS), max_size=6)
    classes = draw(same)
    other = classes if draw(st.booleans()) else draw(same)
    return wrap(classes, tail), wrap(other, tail)


@given(chain_pairs())
@example((unary.Succ(Layer(unary.Zero())), unary.Succ(Layer(unary.Zero()))))
@example((Digit(binary.Odd(binary.Zero())), Digit(binary.Odd(binary.Odd(binary.Zero())))))
@example((binary.Odd(1), binary.Odd(1.0)))
@example((binary.Odd([1]), binary.Odd([1])))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_equality_matches_its_per_node_reference(pair):
    a, b = pair
    equal = reference_eq(a, b)
    assert (a == b) is equal
    assert (a != b) is not equal
    assert (b == a) is equal
    if equal and type(innermost(a)) is not list:  # a chain over a list is unhashable by design
        assert hash(a) == hash(b)

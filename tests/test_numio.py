"""Literal parsing and printing, checked against the per-node parser and
printer kept here as references; the foreign wrappers and tails are
``tests/shared.py``'s."""

import ast
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numrep import binary, braun, numio, twoscomp, unary
from numrep.numio import CanonicalityError, ParseError
from shared import TAILS, WRAPPERS, Digit, Layer, index_digits, outcome, wrap


def test_parse_unary():
    assert numio.parse_numeral("Z", "unary") == unary.Zero()
    assert numio.parse_numeral("S(S(Z))", "unary") == unary.Succ(unary.Succ(unary.Zero()))


def test_parse_binary_four():
    assert numio.parse_numeral("A(A(B(Z)))", "binary") == binary.from_int(4)


def test_parse_twoscomp():
    assert numio.parse_numeral("N", "twoscomp") == twoscomp.MinusOne()
    assert numio.parse_numeral("B(A(N))", "twoscomp") == twoscomp.from_int(-3)


def test_parse_cd():
    assert numio.parse_numeral("C(D(Z))", "cd") == braun.cd_from_int(5)


def test_parse_is_whitespace_insensitive():
    assert numio.parse_numeral("  S ( S ( Z ) ) ", "unary") == unary.from_int(2)
    assert numio.parse_numeral("A( B(\tZ) )", "binary") == binary.from_int(2)


def test_parse_rejects_non_canonical_binary():
    with pytest.raises(CanonicalityError):
        numio.parse_numeral("A(Z)", "binary")
    with pytest.raises(CanonicalityError):
        numio.parse_numeral("B(A(Z))", "binary")


def test_parse_rejects_non_canonical_twoscomp():
    with pytest.raises(CanonicalityError):
        numio.parse_numeral("B(N)", "twoscomp")
    with pytest.raises(CanonicalityError):
        numio.parse_numeral("A(Z)", "twoscomp")


def test_canonicality_and_syntax_errors_are_distinct():
    # same shape of input, two different failure classes
    with pytest.raises(CanonicalityError):
        numio.parse_numeral("A(Z)", "binary")
    with pytest.raises(ParseError):
        numio.parse_numeral("A(Q)", "binary")
    assert not issubclass(CanonicalityError, ParseError)
    assert not issubclass(ParseError, CanonicalityError)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        numio.parse_numeral("S(S(Z)", "unary")
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        numio.parse_numeral("S(X)", "unary")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        numio.parse_numeral("Z)", "unary")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        numio.parse_numeral("", "binary")
    assert err.value.position == 0


# The error contract of parse_numeral: (text, kind, exception class,
# message, position).  "\u2003" is an em space, which the parser skips
# like any other whitespace.
PARSE_ERRORS = [
    ("S Z)", "unary", ParseError, "expected '(' after 'S' (at position 2)", 2),
    ("B", "binary", ParseError, "expected '(' after 'B' (at position 1)", 1),
    ("S(S(Z)", "unary", ParseError, "expected ')' (at position 6)", 6),
    ("A(B(Z) ", "binary", ParseError, "expected ')' (at position 7)", 7),
    ("Z)", "unary", ParseError, "trailing input ')' (at position 1)", 1),
    ("B(Z) )", "binary", ParseError, "trailing input ')' (at position 5)", 5),
    ("S(S(Z)))", "unary", ParseError, "trailing input ')' (at position 7)", 7),
    ("(Z)", "binary", ParseError, "unexpected character '(' (at position 0)", 0),
    ("B((Z))", "binary", ParseError, "unexpected character '(' (at position 2)", 2),
    ("Z Z", "binary", ParseError, "trailing input 'Z' (at position 2)", 2),
    ("B(Z) B(Z)", "binary", ParseError, "trailing input 'B' (at position 5)", 5),
    ("S(Z)", "binary", ParseError, "unexpected character 'S' (at position 0)", 0),
    ("N", "binary", ParseError, "unexpected character 'N' (at position 0)", 0),
    ("A(B(Z))", "cd", ParseError, "unexpected character 'A' (at position 0)", 0),
    ("B(S(Z))", "twoscomp", ParseError, "unexpected character 'S' (at position 2)", 2),
    ("b(Z)", "binary", ParseError, "unexpected character 'b' (at position 0)", 0),
    ("", "binary", ParseError,
     "unexpected end of input, expected a constructor (at position 0)", 0),
    ("   ", "twoscomp", ParseError,
     "unexpected end of input, expected a constructor (at position 3)", 3),
    ("\t\n", "unary", ParseError,
     "unexpected end of input, expected a constructor (at position 2)", 2),
    ("B ( ", "binary", ParseError,
     "unexpected end of input, expected a constructor (at position 4)", 4),
    ("\u2003", "binary", ParseError,
     "unexpected end of input, expected a constructor (at position 1)", 1),
    ("B\u2003(Z)\u2003x", "binary", ParseError, "trailing input 'x' (at position 6)", 6),
    ("\u2003B(\u2003Z)\u2003)", "binary", ParseError,
     "trailing input ')' (at position 7)", 7),
    ("S ", "unary", ParseError, "expected '(' after 'S' (at position 2)", 2),
    ("A( B( Z ) ", "binary", ParseError, "expected ')' (at position 10)", 10),
    ("S(S(Z) ) )", "unary", ParseError, "trailing input ')' (at position 9)", 9),
    ("C( ", "cd", ParseError,
     "unexpected end of input, expected a constructor (at position 3)", 3),
    ("B(A", "twoscomp", ParseError, "expected '(' after 'A' (at position 3)", 3),
    ("C", "cd", ParseError, "expected '(' after 'C' (at position 1)", 1),
    ("A(N", "twoscomp", ParseError, "expected ')' (at position 3)", 3),
    ("D(Z", "cd", ParseError, "expected ')' (at position 3)", 3),
    ("N)", "twoscomp", ParseError, "trailing input ')' (at position 1)", 1),
    ("Z Z", "cd", ParseError, "trailing input 'Z' (at position 2)", 2),
    pytest.param("B(" * 10000 + "Z" + ")" * 9999, "binary", ParseError,
                 "expected ')' (at position 30000)", 30000, id="10000-deep-one-closer-short"),
    pytest.param("B(" * 10000 + "Z" + ")" * 10001, "binary", ParseError,
                 "trailing input ')' (at position 30001)", 30001, id="10000-deep-one-closer-over"),
    (" A ( Z ) ", "binary", CanonicalityError,
     "non-canonical literal: A applied directly to Z", None),
    pytest.param("B(" * 9999 + "A(Z" + ")" * 10000, "binary", CanonicalityError,
                 "non-canonical literal: A applied directly to Z", None, id="10000-deep-A-on-Z"),
    pytest.param("A(" * 9999 + "B(N" + ")" * 10000, "twoscomp", CanonicalityError,
                 "non-canonical literal: A applied directly to Z, or B directly to N", None,
                 id="10000-deep-B-on-N"),
    ("B(N)", "twoscomp", CanonicalityError,
     "non-canonical literal: A applied directly to Z, or B directly to N", None),
]


@pytest.mark.parametrize("text, kind, error, message, position", PARSE_ERRORS)
def test_parse_error_contract(text, kind, error, message, position):
    with pytest.raises(error) as err:
        numio.parse_numeral(text, kind)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


# a value of each kind, and whitespace to put between the tokens of its literal
VALUES = st.one_of(
    st.tuples(st.just("unary"), st.integers(0, 60).map(unary.from_int)),
    st.tuples(st.just("binary"), st.integers(0, 2 ** 64).map(binary.from_int)),
    st.tuples(st.just("twoscomp"), st.integers(-(2 ** 64), 2 ** 64).map(twoscomp.from_int)),
    st.tuples(st.just("cd"), st.integers(0, 2 ** 64).map(braun.cd_from_int)),
)
SPACE = st.text(st.sampled_from(" \t\n\r\u2003\u3000\x85"), max_size=2)


def spaced(data, compact):
    """compact with drawn whitespace before, between and after its tokens."""
    gaps = data.draw(st.lists(SPACE, min_size=len(compact) + 1, max_size=len(compact) + 1))
    return "".join(gap + c for gap, c in zip(gaps, compact)) + gaps[-1]


@given(VALUES, st.data())
@settings(max_examples=200, deadline=None)
def test_whitespace_between_tokens_does_not_change_the_value(kind_value, data):
    kind, value = kind_value
    compact = numio.print_numeral(value)
    assert numio.parse_numeral(spaced(data, compact), kind) == value
    assert numio.parse_numeral(compact, kind) == value


@given(VALUES, st.data())
@settings(max_examples=300, deadline=None)
def test_error_positions_point_at_what_the_message_names(kind_value, data):
    kind, value = kind_value
    text = list(spaced(data, numio.print_numeral(value)))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        removed = data.draw(st.integers(0, 1))  # insert, replace or delete one character
        text[i:i + removed] = data.draw(st.text(st.sampled_from("ZSABNCD()xb \u2003\x85"), max_size=1))
    text = "".join(text)
    try:
        numio.parse_numeral(text, kind)
    except ParseError as exc:
        p = exc.position
        assert p == len(text) or (0 <= p < len(text) and not text[p].isspace())
        quoted = re.fullmatch(r"(?:unexpected character|trailing input) (.+) \(at position \d+\)", str(exc))
        if quoted:
            assert ast.literal_eval(quoted[1]) == text[p]
    except CanonicalityError:
        pass


def test_unicode_whitespace_between_tokens():
    assert numio.parse_numeral("S(\u2003Z\u2003)", "unary") == unary.from_int(1)


def test_parse_rejects_constructors_of_other_kinds():
    with pytest.raises(ParseError):
        numio.parse_numeral("S(Z)", "binary")
    with pytest.raises(ParseError):
        numio.parse_numeral("N", "binary")
    with pytest.raises(ParseError):
        numio.parse_numeral("A(B(Z))", "cd")


def test_parse_unknown_kind():
    with pytest.raises(ValueError):
        numio.parse_numeral("Z", "ternary")


@pytest.mark.parametrize("kind, shown", [
    ("ternary", "'ternary'"), ("k" * 100_000, "'" + "k" * 59 + "..."), (5, "5"), ([], "[]"),
])
def test_an_unknown_kind_is_quoted_at_most_60_characters(kind, shown):
    with pytest.raises(ValueError) as caught:
        numio.parse_numeral("Z", kind)
    assert caught.value.args == (f"unknown numeral kind: {shown}",)
    assert kind not in numio.KINDS
    with pytest.raises(KeyError) as caught:
        numio.KINDS[kind]
    assert caught.value.args == (f"unknown numeral kind: {shown}",)


def test_kinds_are_four_rows_in_order():
    assert list(numio.KINDS) == ["unary", "binary", "twoscomp", "cd"]


@pytest.mark.parametrize("kind", list(numio.KINDS))
def test_each_kind_row_converts_and_prints_both_ways(kind):
    row = numio.KINDS[kind]
    for n in range(-300 if kind == "twoscomp" else 0, 300):
        value = row.from_int(n)
        assert row.to_int(value) == n
        text = numio.print_numeral(value)
        assert set(text) <= set(row.alphabet) | set("()")
        assert numio.parse_numeral(text, kind) == value


@pytest.mark.parametrize("kind, name", [
    ("unary", "a unary natural"), ("binary", "a binary natural"), ("cd", "an index numeral"),
])
def test_from_int_names_a_huge_negative_number_by_its_bit_length(kind, name):
    # past 4300 digits Python refuses to print the number
    with pytest.raises(ValueError, match=f"^cannot represent a negative number of 16610 bits as {name}$"):
        numio.KINDS[kind].from_int(-10**5000)
    with pytest.raises(ValueError, match=f"^cannot represent -5 as {name}$"):
        numio.KINDS[kind].from_int(-5)


def test_print_small_values():
    assert numio.print_numeral(unary.Zero()) == "Z"
    assert numio.print_numeral(unary.from_int(2)) == "S(S(Z))"
    assert numio.print_numeral(binary.from_int(4)) == "A(A(B(Z)))"
    assert numio.print_numeral(twoscomp.from_int(-5)) == "B(B(A(N)))"
    assert numio.print_numeral(braun.cd_from_int(5)) == "C(D(Z))"


def test_print_rejects_foreign_values():
    with pytest.raises(TypeError):
        numio.print_numeral(42)


def test_parse_print_roundtrip_500_random_values_per_kind():
    rng = random.Random(4711)
    cases = {
        "unary": lambda: unary.from_int(rng.randint(0, 300)),
        "binary": lambda: binary.from_int(rng.randint(0, 10 ** 9)),
        "twoscomp": lambda: twoscomp.from_int(rng.randint(-(10 ** 9), 10 ** 9)),
        "cd": lambda: braun.cd_from_int(rng.randint(0, 10 ** 9)),
    }
    for kind, make in cases.items():
        for _ in range(500):
            value = make()
            text = numio.print_numeral(value)
            assert numio.parse_numeral(text, kind) == value


@pytest.mark.parametrize("module, kind, n", [
    (binary, "binary", int("1011" * 2500, 2)),
    (twoscomp, "twoscomp", -int("1011" * 2500, 2)),
    (twoscomp, "twoscomp", int("1011" * 2500, 2)),
    (binary, "binary", 2 ** 9999),  # A(...B(Z)...): A on every digit but the innermost
    (twoscomp, "twoscomp", 2 ** 9999),
])
def test_parse_print_roundtrip_10000_digits(module, kind, n):
    text = numio.print_numeral(module.from_int(n))
    assert text.count("(") == 10_000
    value = numio.parse_numeral(text, kind)
    assert module.to_int(value) == n
    assert numio.print_numeral(value) == text


def test_index_and_bit_string_conversions_10000_digits():
    i = int("1011" * 2500, 2) * 2  # i + 1 has 10,001 bits
    text = numio.print_numeral(braun.cd_from_int(i))
    digits = ["C" if d is braun.IxOdd else "D" for d in index_digits(i)]
    assert text == "(".join(digits + ["Z"]) + ")" * 10_000
    assert braun.cd_to_int(numio.parse_numeral(text, "cd")) == i

    for n in (int("1011" * 2500, 2), -int("1011" * 2500, 2)):
        value = twoscomp.from_int(n)
        bits = twoscomp.render_bits(value)
        tail, body = bits[3], bits[4:]
        assert len(body) == 10_000
        assert int(body, 2) - (2 ** len(body) if tail == "1" else 0) == n
        parsed = twoscomp.parse_bits(bits)
        assert twoscomp.to_int(parsed) == n
        assert numio.print_numeral(parsed) == numio.print_numeral(value)


def unary_literal(n):
    return "S(" * n + "Z" + ")" * n


@given(st.integers(0, 2 ** 16))
@example(2 ** 16)
def test_unary_literals_parse_onto_the_shared_tower(n):
    value = numio.parse_numeral(unary_literal(n), "unary")
    assert value is unary.from_int(n)
    assert unary.to_int(value) == n


def test_unary_literal_past_the_tower_cap():
    text = unary_literal(70_000)
    value = numio.parse_numeral(text, "unary")
    assert value == unary.from_int(70_000)
    assert unary.to_int(value) == 70_000
    assert numio.print_numeral(value) == text


@pytest.mark.parametrize("text, message", [
    ("S(" * 70_000 + "Z" + ")" * 69_999, "expected ')' (at position 210000)"),
    ("S(" * 70_000 + "Z" + ")" * 70_001, "trailing input ')' (at position 210001)"),
    ("S(" * 70_000 + "X" + ")" * 70_000, "unexpected character 'X' (at position 140000)"),
    ("S(" * 70_000 + "S)" + ")" * 70_000, "expected '(' after 'S' (at position 140001)"),
    (" S (" * 70_000 + " Z" + " )" * 69_999 + " ", "expected ')' (at position 420001)"),
], ids=["short", "trailing", "character", "unopened", "spaced"])
def test_unary_errors_past_the_tower_cap(text, message):
    with pytest.raises(ParseError) as info:
        numio.parse_numeral(text, "unary")
    assert str(info.value) == message


def test_print_of_parse_gives_canonical_text():
    assert numio.print_numeral(numio.parse_numeral(" S( Z )", "unary")) == "S(Z)"


# The per-node parser and printer that numio had before it converted
# through binary's builder and walker, kept as the reference for both:
# the parser wraps one constructor per letter, the printer walks one node
# at a time through a class -> letter table and a class -> child field one.
REF_ALPHABETS = {
    "unary": {"Z": unary.Zero, "S": unary.Succ},
    "binary": {"Z": binary.Zero, "A": binary.Even, "B": binary.Odd},
    "twoscomp": {"Z": binary.Zero, "N": twoscomp.MinusOne, "A": binary.Even, "B": binary.Odd},
    "cd": {"Z": braun.IxZero, "C": braun.IxOdd, "D": braun.IxEven},
}
REF_CANONICAL = {
    "binary": (binary.is_canonical, "non-canonical literal: A applied directly to Z"),
    "twoscomp": (twoscomp.is_canonical,
                 "non-canonical literal: A applied directly to Z, or B directly to N"),
}
REF_LETTERS = {k: c for alphabet in REF_ALPHABETS.values() for c, k in alphabet.items()}
REF_CHILD_FIELD = {k: k.__slots__[0] for k in REF_LETTERS if k.__slots__}
REF_PATTERNS = {
    kind: re.compile(r"((?:[{0}]\()*)(?:([{0}])|([{1}]))?(\)*)".format(
        "".join(c for c, k in alphabet.items() if k.__slots__),
        "".join(c for c, k in alphabet.items() if not k.__slots__)))
    for kind, alphabet in REF_ALPHABETS.items()
}


def reference_parse(text, kind):
    if kind not in REF_ALPHABETS:
        raise ValueError(f"unknown numeral kind: {kind!r}")
    compact = "".join(text.split())
    m = REF_PATTERNS[kind].match(compact)
    if not m[3] or 2 * len(m[4]) != len(m[1]) or m.end() != len(compact):
        raise reference_syntax_error(text, m)
    if kind == "unary":
        return unary.from_int(len(m[4]))
    alphabet = REF_ALPHABETS[kind]
    letters = m[1][-2::-2]
    value = alphabet[m[3]]()
    if letters:
        value = alphabet[letters[0]](value)
        canonical = REF_CANONICAL.get(kind)
        if canonical is not None and not canonical[0](value):
            raise CanonicalityError(canonical[1])
        for c in letters[1:]:
            value = alphabet[c](value)
    return value


def reference_syntax_error(text, m):
    compact, closers = m.string, m.start(4)
    depth = len(m[1]) // 2
    if m[2]:
        i, message = m.end(2), f"expected '(' after {m[2]!r}"
    elif not m[3]:
        i = closers
        message = (f"unexpected character {compact[i]!r}" if i < len(compact)
                   else "unexpected end of input, expected a constructor")
    elif len(m[4]) < depth:
        i, message = m.end(), "expected ')'"
    else:
        i = closers + depth
        message = f"trailing input {compact[i]!r}"
    solid = [j for j, c in enumerate(text) if not c.isspace()]
    return ParseError(message, solid[i] if i < len(solid) else len(text))


def reference_print(value):
    parts = []
    t = type(value)
    while t in REF_CHILD_FIELD:
        parts.append(REF_LETTERS[t])
        value = getattr(value, REF_CHILD_FIELD[t])
        t = type(value)
    try:
        parts.append(REF_LETTERS[t])
    except KeyError:
        raise TypeError(f"not a printable numeral: {value!r}") from None
    return "(".join(parts) + ")" * (len(parts) - 1)


@st.composite
def near_literals(draw):
    """(text, kind): a literal of one kind, perhaps spaced, with up to three
    characters inserted, replaced or deleted, read as that kind or another."""
    kind, value = draw(VALUES)
    if draw(st.booleans()):
        compact = reference_print(value)
    else:  # any wrappers of the kind over any of its nullary letters, canonical or not
        alphabet = REF_ALPHABETS[kind]
        wrappers = draw(st.text(st.sampled_from([c for c, k in alphabet.items() if k.__slots__]),
                                max_size=12))
        nullary = draw(st.sampled_from([c for c, k in alphabet.items() if not k.__slots__]))
        compact = "".join(c + "(" for c in wrappers) + nullary + ")" * len(wrappers)
    gaps = draw(st.lists(SPACE, min_size=len(compact) + 1, max_size=len(compact) + 1))
    text = list("".join(gap + c for gap, c in zip(gaps, compact)) + gaps[-1])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        removed = draw(st.integers(0, 1))
        text[i:i + removed] = draw(st.text(st.sampled_from("ZSABNCD()xb  "), max_size=1))
    read_as = draw(st.sampled_from([kind, kind, kind, "unary", "binary", "twoscomp", "cd", "ternary"]))
    return "".join(text), read_as


LITERAL_TEXTS = st.one_of(
    near_literals(),
    st.tuples(st.text(st.sampled_from("ZSABNCD() \t"), max_size=24),
              st.sampled_from(list(REF_ALPHABETS))),
)
PRINTABLES = st.one_of(
    st.builds(wrap, st.lists(st.sampled_from(WRAPPERS), max_size=24), st.sampled_from(TAILS)),
    VALUES.map(lambda kind_value: kind_value[1]),
    st.sampled_from(TAILS),
)


@given(LITERAL_TEXTS)
@example(("B(A(Z))", "binary"))
@example(("A(" * 3 + "B(N" + ")" * 4, "twoscomp"))
@example(("S(S(Z))", "ternary"))
@example(("A(C(Z))", "cd"))
@settings(derandomize=True, max_examples=600, deadline=None)
def test_parse_matches_the_per_node_reference(text_kind):
    text, kind = text_kind
    assert outcome(numio.parse_numeral, text, kind) == outcome(reference_parse, text, kind)


@given(PRINTABLES)
@example(unary.Succ(binary.Even(braun.IxOdd(braun.IxZero()))))
@example(binary.Even(5))
@example(binary.Odd(Digit(binary.Zero())))
@example(braun.IxEven(twoscomp.MinusOne()))
@example(binary.Even(Layer(unary.Zero())))
@settings(derandomize=True, max_examples=600, deadline=None)
def test_print_matches_the_per_node_reference(value):
    assert outcome(numio.print_numeral, value) == outcome(reference_print, value)


def test_print_walks_a_chain_of_short_runs_without_recursing():
    # Succ and Even alternate, so each run of digits is one layer long:
    # the printer loops once per run, and recursing on a tail would
    # overflow the stack long before 100,000 layers
    value = binary.Zero()
    for k in range(100_000):
        value = unary.Succ(value) if k % 2 else binary.Even(value)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        text = numio.print_numeral(value)
    finally:
        sys.setrecursionlimit(limit)
    assert text == reference_print(value)
    assert text.startswith("S(A(S(A(") and text.count("(") == 100_000


def test_csv_empty():
    assert numio.csv_emit([]) == "n,steps\n"


def test_csv_single_row():
    assert numio.csv_emit([(10, 11)]) == "n,steps\n10,11\n"


def test_csv_two_rows():
    assert numio.csv_emit([(8, 255), (12, 4095)]) == "n,steps\n8,255\n12,4095\n"

"""Text layer: numeral literals and CSV emission.

Literals are fully parenthesized constructor applications, one letter per
constructor, such as ``S(S(Z))`` or ``B(A(N))``.  Whitespace is ignored
everywhere.  Each numeral kind has its own alphabet:

    unary     Z | S(x)
    binary    Z | A(x) | B(x)        A never directly on Z
    twoscomp  Z | N | A(x) | B(x)    additionally B never directly on N
    cd        Z | C(x) | D(x)

Parsing rejects non-canonical binary and twoscomp literals; that failure
is a :class:`CanonicalityError`, distinct from a :class:`ParseError`,
which reports the character position of a syntax problem.  Each kind's
grammar is one regular expression, built from pieces; a literal that does
not match it is positioned by matching the same pieces as far as they go.
"""

from __future__ import annotations

import re
from typing import Any, List, Tuple

from . import binary, braun, twoscomp, unary
from .binary import CanonicalityError


class ParseError(ValueError):
    """Syntax error in a numeral literal, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# each kind's alphabet, letter -> constructor; the tables below derive from
# it: a constructor with one slot wraps the value in it, one with none is nullary
_ALPHABETS = {
    "unary": {"Z": unary.Zero, "S": unary.Succ},
    "binary": {"Z": binary.Zero, "A": binary.Even, "B": binary.Odd},
    "twoscomp": {"Z": binary.Zero, "N": twoscomp.MinusOne, "A": binary.Even, "B": binary.Odd},
    "cd": {"Z": braun.IxZero, "C": braun.IxOdd, "D": braun.IxEven},
}
KINDS = tuple(_ALPHABETS)

# parsing tables per kind: wrapper letters, and nullary letters
_WRAPPERS = {
    kind: {c: k for c, k in alphabet.items() if k.__slots__}
    for kind, alphabet in _ALPHABETS.items()
}
_NULLARIES = {
    kind: {c: k for c, k in alphabet.items() if not k.__slots__}
    for kind, alphabet in _ALPHABETS.items()
}

# printing tables: class -> letter, and the field holding the wrapped value
_LETTERS = {k: c for alphabet in _ALPHABETS.values() for c, k in alphabet.items()}
_CHILD_FIELD = {k: k.__slots__[0] for k in _LETTERS if k.__slots__}


# each kind's literal grammar as regex pieces: the wrapper and nullary
# letter classes, the openings (wrapper letters each followed by "(") and
# the closer; \s and str.isspace, which str.split uses, agree on every
# code point
_CLASSES = {
    kind: (f"[{''.join(_WRAPPERS[kind])}]", f"[{''.join(_NULLARIES[kind])}]")
    for kind in KINDS
}
_OPENINGS = r"\s*((?:{}\s*\(\s*)*)"
_CLOSER = r"\s*\)"
# the shape: the openings, one nullary letter, then the closers
_SHAPES = {
    kind: re.compile(_OPENINGS.format(wrapper) + rf"({nullary})((?:{_CLOSER})*)\s*")
    for kind, (wrapper, nullary) in _CLASSES.items()
}


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive."""
    if kind not in KINDS:
        raise ValueError(f"unknown numeral kind: {kind!r}")
    wrappers = _WRAPPERS[kind]
    m = _SHAPES[kind].fullmatch(text)
    if m is None:
        raise _syntax_error(text, kind)
    opening, nullary, closing = m.groups()
    # "A ( B(" -> "A(B(" -> "AB": every other character is a letter
    letters = "".join(opening.split())[::2]
    if closing.count(")") != len(letters):
        raise _syntax_error(text, kind)

    value = _NULLARIES[kind][nullary]()
    for c in reversed(letters):
        value = wrappers[c](value)

    if kind == "binary" and not binary.is_canonical(value):
        raise CanonicalityError("non-canonical literal: A applied directly to Z")
    if kind == "twoscomp" and not twoscomp.is_canonical(value):
        raise CanonicalityError(
            "non-canonical literal: A applied directly to Z, or B directly to N"
        )
    return value


def _syntax_error(text: str, kind: str) -> ParseError:
    """The positioned error for a literal that does not have the shape: the
    openings, then a wrapper letter with no "(", the nullary letter or
    neither, then at most one closer per opening, as far as they match."""
    wrapper, nullary = _CLASSES[kind]
    stop = re.compile(_OPENINGS.format(wrapper) + rf"(?:({wrapper})\s*|({nullary}))?").match(text)
    opened, unopened, last = stop.groups()
    i = stop.end()
    if unopened:
        return ParseError(f"expected '(' after {unopened!r}", i)
    if not last and i == len(text):
        return ParseError("unexpected end of input, expected a constructor", i)
    if not last:
        return ParseError(f"unexpected character {text[i]!r}", i)
    depth = opened.count("(")
    closers = re.compile(rf"((?:{_CLOSER}){{0,{depth}}})\s*").match(text, i)
    i = closers.end()
    if closers.group(1).count(")") < depth:
        return ParseError("expected ')'", i)
    return ParseError(f"trailing input {text[i]!r}", i)


def print_numeral(value: Any) -> str:
    """Canonical text of a numeral value; exact inverse of the parser."""
    parts: List[str] = []
    t = type(value)
    while t in _CHILD_FIELD:
        parts.append(_LETTERS[t])
        value = getattr(value, _CHILD_FIELD[t])
        t = type(value)
    try:
        parts.append(_LETTERS[t])
    except KeyError:
        raise TypeError(f"not a printable numeral: {value!r}") from None
    return "(".join(parts) + ")" * (len(parts) - 1)


def csv_emit(rows: List[Tuple[int, int]]) -> str:
    """Benchmark CSV: an ``n,steps`` header then one line per sample."""
    lines = ["n,steps"]
    lines.extend(f"{n},{steps}" for n, steps in rows)
    return "\n".join(lines) + "\n"

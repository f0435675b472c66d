"""Text layer: numeral literals and CSV emission.

Literals are fully parenthesized constructor applications, one letter per
constructor, such as ``S(S(Z))`` or ``B(A(N))``.  Whitespace is ignored
everywhere: the parser removes it once and reads the rest.  Each numeral
kind has its own alphabet:

    unary     Z | S(x)
    binary    Z | A(x) | B(x)        A never directly on Z
    twoscomp  Z | N | A(x) | B(x)    additionally B never directly on N
    cd        Z | C(x) | D(x)

Parsing rejects non-canonical binary and twoscomp literals; that failure
is a :class:`CanonicalityError`, distinct from a :class:`ParseError`,
which reports the character position of a syntax problem.  Each kind's
grammar is one regular expression over the whitespace-free text, built
from pieces; a literal that does not match it is positioned by matching
the same pieces as far as they go, and that position is mapped back to
the original text (the index of the same non-whitespace character, or
the end of the text).  Canonicality is tested once, by the layer's own
``is_canonical``, on the innermost wrapper: every other wrapper in a
literal wraps a digit.
"""

from __future__ import annotations

import itertools
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


# each kind's literal grammar over its whitespace-free text, as regex
# pieces: the wrapper and nullary letter classes, the openings (wrapper
# letters each followed by "(") and the closer
_CLASSES = {
    kind: (f"[{''.join(_WRAPPERS[kind])}]", f"[{''.join(_NULLARIES[kind])}]")
    for kind in KINDS
}
_OPENINGS = r"((?:{}\()*)"
_CLOSER = r"\)"
# the shape: the openings, one nullary letter, then the closers
_SHAPES = {
    kind: re.compile(_OPENINGS.format(wrapper) + rf"({nullary})((?:{_CLOSER})*)")
    for kind, (wrapper, nullary) in _CLASSES.items()
}

# the layer's canonicality test and its message, per kind that has one; in
# a literal only the innermost wrapper can break it, as every other wraps
# a digit
_CANONICAL = {
    "binary": (binary.is_canonical, "non-canonical literal: A applied directly to Z"),
    "twoscomp": (
        twoscomp.is_canonical,
        "non-canonical literal: A applied directly to Z, or B directly to N",
    ),
}


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive."""
    if kind not in KINDS:
        raise ValueError(f"unknown numeral kind: {kind!r}")
    compact = "".join(text.split())
    m = _SHAPES[kind].fullmatch(compact)
    if m is None or 2 * len(m[3]) != len(m[1]):  # one closer per opening
        raise _syntax_error(text, compact, kind)
    letters = m[1][-2::-2]  # "A(B(" -> "BA": the wrapper letters, innermost first
    value = _NULLARIES[kind][m[2]]()
    if letters:
        wrappers = _WRAPPERS[kind]
        value = wrappers[letters[0]](value)
        canonical = _CANONICAL.get(kind)
        if canonical is not None and not canonical[0](value):
            raise CanonicalityError(canonical[1])
        for c in letters[1:]:
            value = wrappers[c](value)
    return value


def _syntax_error(text: str, compact: str, kind: str) -> ParseError:
    """The positioned error for a literal whose whitespace-free text does not
    have the shape: the openings, then a wrapper letter with no "(", the
    nullary letter or neither, then at most one closer per opening, as far
    as they match.  The position found there is mapped back to the text."""
    wrapper, nullary = _CLASSES[kind]
    stop = re.compile(_OPENINGS.format(wrapper) + rf"(?:({wrapper})|({nullary}))?").match(compact)
    opened, unopened, last = stop.groups()
    i = stop.end()
    if unopened:
        message = f"expected '(' after {unopened!r}"
    elif not last and i == len(compact):
        message = "unexpected end of input, expected a constructor"
    elif not last:
        message = f"unexpected character {compact[i]!r}"
    else:
        depth = opened.count("(")
        closers = re.compile(rf"(?:{_CLOSER}){{0,{depth}}}").match(compact, i)
        short = closers.end() - i < depth
        i = closers.end()
        message = "expected ')'" if short else f"trailing input {compact[i]!r}"
    # the index of text's i-th non-whitespace character, or its end
    solid = (j for j, c in enumerate(text) if not c.isspace())
    return ParseError(message, next(itertools.islice(solid, i, None), len(text)))


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

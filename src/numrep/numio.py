"""Text layer: numeral literals and CSV emission.

Literals are fully parenthesized constructor applications, one letter per
constructor, such as ``S(S(Z))`` or ``B(A(N))``.  Whitespace is ignored
everywhere: the parser removes it once and reads the rest.  Each numeral
kind is one row of :data:`KINDS`: its alphabet, its conversions from and
to a machine integer, and its canonicality test and message, if any.
The alphabets are:

    unary     Z | S(x)
    binary    Z | A(x) | B(x)        A never directly on Z
    twoscomp  Z | N | A(x) | B(x)    additionally B never directly on N
    cd        Z | C(x) | D(x)

Parsing rejects non-canonical binary and twoscomp literals; that failure
is a :class:`CanonicalityError`, distinct from a :class:`ParseError`,
which reports the character position of a syntax problem.  Each kind has
one pattern over the whitespace-free text, built from its alphabet, and
the parser matches it once: the match either reads as a literal or says
what is wrong and where, and that position is mapped back to the
original text (the index of the same non-whitespace character, or the
end of the text).  Canonicality is tested once, by the layer's own
rule over the innermost digit and the tail: every other wrapper in a
literal wraps a digit.  A unary literal, once its shape matches, is the
numeral ``unary.from_int(n)`` for its n ``S``: it parses onto the shared
tower of :mod:`numrep.unary` instead of building n fresh nodes, and one
over its height bound raises ValueError as :func:`numrep.unary.from_int`
does.

Literals convert through :mod:`numrep.binary`'s builder and walker, like
every other conversion in the package.  The wrapper letters of a binary,
twoscomp or cd literal translate to the builder's bits, and one builder
call wraps them onto the tail.  The printer loops over runs: binary's
walker reads each run of digits off as bits, which translate back to
letters, a run of ``S`` is counted, and the tail ends the text or starts
the next run.  It never recurses, so a chain of any length prints.
"""

from __future__ import annotations

import collections
import itertools
import re
from typing import Any, Dict, List, Tuple

from . import binary, braun, twoscomp, unary
from .binary import CanonicalityError, _bits, _from_bits


class ParseError(ValueError):
    """Syntax error in a numeral literal, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# each kind's row: its alphabet, letter -> constructor (one with a slot
# wraps the value in it, one with none is nullary), its (0-digit, 1-digit)
# classes, which binary's builder and walker convert through, or None for
# unary, its conversions from and to a machine integer, and its layer's
# canonicality rule over a chain's innermost digit (as the builder's bit,
# or "" for none) and its tail, and that rule's message, or None; in a
# literal only the innermost digit can break canonicality, as every other
# wraps a digit.  The tables below derive from the rows.
_Kind = collections.namedtuple("_Kind", "alphabet digits from_int to_int canonical")
KINDS: Dict[str, _Kind] = {
    "unary": _Kind({"Z": unary.Zero, "S": unary.Succ}, None, unary.from_int, unary.to_int, None),
    "binary": _Kind({"Z": binary.Zero, "A": binary.Even, "B": binary.Odd}, (binary.Even, binary.Odd),
                    binary.from_int, binary.to_int,
                    (binary._canonical, "non-canonical literal: A applied directly to Z")),
    "twoscomp": _Kind({"Z": binary.Zero, "N": twoscomp.MinusOne, "A": binary.Even, "B": binary.Odd},
                      (binary.Even, binary.Odd), twoscomp.from_int, twoscomp.to_int,
                      (twoscomp._canonical,
                       "non-canonical literal: A applied directly to Z, or B directly to N")),
    "cd": _Kind({"Z": braun.IxZero, "C": braun.IxOdd, "D": braun.IxEven}, (braun.IxOdd, braun.IxEven),
                braun.cd_from_int, braun.cd_to_int, None),
}


def _digit_letters(row: _Kind) -> str:
    """The letters of row's 0-digit and 1-digit classes, in that order."""
    return "".join(c for k in row.digits for c, cls in row.alphabet.items() if cls is k)


# parsing table: each digit kind's letter -> bit; printing tables: each
# class's letter, and each digit class's (its kind's digit classes, bit ->
# letter), with which the printer reads a whole run of digits at once
_TO_BITS = {kind: str.maketrans(_digit_letters(row), "01") for kind, row in KINDS.items() if row.digits}
_LETTERS = {k: c for row in KINDS.values() for c, k in row.alphabet.items()}
_RUNS = {k: (row.digits, str.maketrans("01", _digit_letters(row)))
         for row in KINDS.values() if row.digits for k in row.digits}

# each kind's one pattern over its whitespace-free text, from its row's
# alphabet: the openings (wrapper letters each followed by "("), then a
# wrapper letter with no "(", a nullary letter or neither, then the
# closers.  It matches any text from its start; a literal is a match that
# took the nullary letter, closes each opening once and reaches the end,
# and any other match says where the literal goes wrong.
_PATTERNS = {
    kind: re.compile(r"((?:[{0}]\()*)(?:([{0}])|([{1}]))?(\)*)".format(
        "".join(c for c, k in row.alphabet.items() if k.__slots__),
        "".join(c for c, k in row.alphabet.items() if not k.__slots__)))
    for kind, row in KINDS.items()
}


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive."""
    if kind not in KINDS:
        raise ValueError(f"unknown numeral kind: {kind!r}")
    compact = "".join(text.split())
    m = _PATTERNS[kind].match(compact)
    if not m[3] or 2 * len(m[4]) != len(m[1]) or m.end() != len(compact):
        raise _syntax_error(text, m)
    if kind == "unary":  # n openings are all S: the numeral n, off the shared tower
        return unary.from_int(len(m[4]))
    row = KINDS[kind]
    bits = m[1][-2::-2].translate(_TO_BITS[kind])  # "A(B(" -> "10": innermost first
    tail = row.alphabet[m[3]]()
    if row.canonical is not None and not row.canonical[0](bits[:1], tail):
        raise CanonicalityError(row.canonical[1])
    return _from_bits(bits, tail, *row.digits)


def _syntax_error(text: str, m: re.Match) -> ParseError:
    """The positioned error for a literal whose pattern match ``m``, over its
    whitespace-free text, is not a literal.  The position found there is
    mapped back to the text."""
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
    # the index of text's i-th non-whitespace character, or its end
    solid = (j for j, c in enumerate(text) if not c.isspace())
    return ParseError(message, next(itertools.islice(solid, i, None), len(text)))


def print_numeral(value: Any) -> str:
    """Canonical text of a numeral value; exact inverse of the parser."""
    parts = []  # the letters of each run of wrappers, outermost first
    while True:
        t = type(value)
        run = _RUNS.get(t)
        if run is not None:
            bits, value = _bits(value, *run[0])
            parts.append(bits[::-1].translate(run[1]))
        elif t is unary.Succ:
            n, value = unary._layers(value)
            parts.append(_LETTERS[t] * n)
        else:
            break
    try:
        parts.append(_LETTERS[t])
    except KeyError:
        raise TypeError(f"not a printable numeral: {value!r}") from None
    letters = "".join(parts)
    return "(".join(letters) + ")" * (len(letters) - 1)


def csv_emit(rows: List[Tuple[int, int]]) -> str:
    """Benchmark CSV: an ``n,steps`` header then one line per sample."""
    lines = ["n,steps"]
    lines.extend(f"{n},{steps}" for n, steps in rows)
    return "\n".join(lines) + "\n"

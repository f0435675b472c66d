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

This module imports only :mod:`numrep.binary`.  A kind's row, with its
pattern and its entries in the printer's tables, is made on the kind's
first use, by :func:`parse_numeral` or ``KINDS[kind]``, which imports
the kind's layer (:mod:`numrep.braun` for ``cd``); naming, listing or
testing the kinds imports none.  When the printer meets a class it has
no entry for, it makes the rows of the layers already loaded and looks
again, so a value of any kind prints although its kind was never named.
A process that reads and prints binary literals compiles no other layer.

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
call wraps them onto the tail.  The printer loops over runs: each wrapper
class has one reader, which reads a whole run of its kind's wrappers and
returns the run's letters and what follows it.  A digit's reader is
binary's walker, whose bits translate back to letters; unary's wrapper's
is the walk that :func:`numrep.unary.to_int` counts with, repeating the
wrapper's letter.  What follows a run ends the text or starts the next
run.  The printer never recurses, so a chain of any length prints.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import re
import sys
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Tuple

from . import binary
from .binary import CanonicalityError, _bits, _from_bits, _OnFirstUse, _shown


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
# wraps a digit.  A row is made from its layer's module on its kind's
# first use, and the parsing and printing tables below with it.
_Kind = collections.namedtuple("_Kind", "alphabet digits from_int to_int canonical")
_MAKE: Dict[str, Tuple[str, Callable[[Any], _Kind]]] = {  # kind -> its layer, and its row from that layer
    "unary": ("unary", lambda m: _Kind({"Z": m.Zero, "S": m.Succ}, None, m.from_int, m.to_int, None)),
    "binary": ("binary", lambda m: _Kind(
        {"Z": m.Zero, "A": m.Even, "B": m.Odd}, (m.Even, m.Odd), m.from_int, m.to_int,
        (m._canonical, "non-canonical literal: A applied directly to Z"))),
    "twoscomp": ("twoscomp", lambda m: _Kind(
        {"Z": binary.Zero, "N": m.MinusOne, "A": binary.Even, "B": binary.Odd}, (binary.Even, binary.Odd),
        m.from_int, m.to_int,
        (m._canonical, "non-canonical literal: A applied directly to Z, or B directly to N"))),
    "cd": ("braun", lambda m: _Kind(
        {"Z": m.IxZero, "C": m.IxOdd, "D": m.IxEven}, (m.IxOdd, m.IxEven), m.cd_from_int, m.cd_to_int, None)),
}

# each built kind -> (its row, its pattern, its parsing table: digit letter
# -> bit, or None); printing tables: each class's letter, and each wrapper
# class's reader, which reads a whole run of its kind's wrappers at once and
# returns (the run's letters, outermost first; what follows the run).  Two
# threads that build one kind at once store equal entries, _BUILT keeps the
# first row, and a kind is in _BUILT only once its printing entries are in.
_BUILT: Dict[str, Tuple[_Kind, "re.Pattern[str]", Any]] = {}
_LETTERS: Dict[type, str] = {}
_RUNS: Dict[type, Callable[[Any], Tuple[str, Any]]] = {}


def _digit_letters(row: _Kind) -> str:
    """The letters of row's 0-digit and 1-digit classes, in that order."""
    return "".join(c for k in row.digits for c, cls in row.alphabet.items() if cls is k)


def _build(kind: str) -> Tuple[_Kind, "re.Pattern[str]", Any]:
    """Import kind's layer and make its row and tables; KeyError for an unknown kind."""
    name, make = _MAKE[kind]
    layer = importlib.import_module(f"{__package__}.{name}")
    row = make(layer)
    # the one pattern over a literal's whitespace-free text, from the
    # alphabet: the openings (wrapper letters each followed by "("), then a
    # wrapper letter with no "(", a nullary letter or neither, then the
    # closers.  It matches any text from its start; a literal is a match
    # that took the nullary letter, closes each opening once and reaches the
    # end, and any other match says where the literal goes wrong.
    pattern = re.compile(r"((?:[{0}]\()*)(?:([{0}])|([{1}]))?(\)*)".format(
        "".join(c for c, k in row.alphabet.items() if k.__slots__),
        "".join(c for c, k in row.alphabet.items() if not k.__slots__)))
    _LETTERS.update((k, c) for c, k in row.alphabet.items())
    if row.digits:  # binary's walker reads a run of digits as bits
        letters = _digit_letters(row)
        to_letters, to_bits = str.maketrans("01", letters), str.maketrans(letters, "01")

        def read(x: Any) -> Tuple[str, Any]:
            bits, rest = _bits(x, *row.digits)
            return bits[::-1].translate(to_letters), rest
        _RUNS.update(dict.fromkeys(row.digits, read))
    else:  # unary: the layer's walk counts a run of its one wrapper
        (letter, wrapper), = ((c, k) for c, k in row.alphabet.items() if k.__slots__)

        def read(x: Any) -> Tuple[str, Any]:
            n, rest = layer._layers(x)
            return letter * n, rest
        _RUNS[wrapper] = read
        to_bits = None
    return _BUILT.setdefault(kind, (row, pattern, to_bits))


def _build_loaded() -> bool:
    """Build the row of each kind whose layer is loaded and whose row is not;
    whether there was one."""
    new = [kind for kind, (name, _) in _MAKE.items()
           if kind not in _BUILT and f"{__package__}.{name}" in sys.modules]
    for kind in new:
        _build(kind)
    return bool(new)


KINDS: Mapping = _OnFirstUse(_MAKE, lambda kind: (_BUILT.get(kind) or _build(kind))[0])  # kind -> its row


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive.  An unknown
    kind raises ValueError, quoting at most 60 characters of its repr."""
    built = _BUILT.get(kind)
    if built is None:
        if kind not in _MAKE:
            raise ValueError(f"unknown numeral kind: {_shown(repr(kind))}")
        built = _build(kind)
    row, pattern, to_bits = built
    compact = "".join(text.split())
    m = pattern.match(compact)
    if not m[3] or 2 * len(m[4]) != len(m[1]) or m.end() != len(compact):
        raise _syntax_error(text, m)
    if to_bits is None:  # unary: n openings are all S, the numeral n, off the shared tower
        return row.from_int(len(m[4]))
    bits = m[1][-2::-2].translate(to_bits)  # "A(B(" -> "10": innermost first
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
    rest = value
    while (read := _RUNS.get(type(rest))) is not None:
        letters, rest = read(rest)
        parts.append(letters)
    try:
        parts.append(_LETTERS[type(rest)])
    except KeyError:
        if _build_loaded():  # a kind not yet used: a value of it means its layer is loaded
            return print_numeral(value)
        raise TypeError(f"not a printable numeral: {rest!r}") from None
    letters = "".join(parts)
    return "(".join(letters) + ")" * (len(letters) - 1)


def csv_emit(rows: List[Tuple[int, int]]) -> str:
    """Benchmark CSV: an ``n,steps`` header then one line per sample."""
    lines = ["n,steps"]
    lines.extend(f"{n},{steps}" for n, steps in rows)
    return "\n".join(lines) + "\n"

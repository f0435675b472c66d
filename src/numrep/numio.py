"""Text layer: numeral literals and CSV emission.

Literals are fully parenthesized constructor applications, one letter per
constructor, such as ``S(S(Z))`` or ``B(A(N))``.  Whitespace is ignored
everywhere: the parser removes it once and reads the rest.  Each numeral
kind is one row of plain data, as each of the meter's op ids is: its
layer's name; its alphabet, each letter mapped to the name there of its
class, with a digit kind's 0-digit letter before its 1-digit letter;
the names there of its conversions from and to a machine integer; and
its canonicality message, or None for a kind whose every literal is
canonical.  The rule that message states is always the layer's own
``_canonical``.  :data:`KINDS` gives each kind's row with these names
resolved, and ``layer`` as the layer's module.  The alphabets are:

    unary     Z | S(x)
    binary    Z | A(x) | B(x)        A never directly on Z
    twoscomp  Z | N | A(x) | B(x)    additionally B never directly on N
    cd        Z | C(x) | D(x)

This module imports only :mod:`numrep.binary`.  A kind's row is
resolved, with its pattern and its entries in the printer's tables, on
the kind's first use, by :func:`parse_numeral` or ``KINDS[kind]``, which
imports the kind's layer (:mod:`numrep.braun` for ``cd``); naming,
listing or testing the kinds imports none, and ``KINDS[kind]`` of an
unknown kind raises KeyError naming it.  When the printer meets a class
it has no entry for, it resolves the rows of the layers already loaded
and looks again, so a value of any kind prints although its kind was
never named.  A process that reads and prints binary literals compiles
no other layer.

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

from .binary import CanonicalityError, _bits, _from_bits, _OnFirstUse, _shown


class ParseError(ValueError):
    """Syntax error in a numeral literal, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# kind -> its row, as plain data: its layer's name; its alphabet, each
# letter -> the name there of its class (one with a slot wraps the value in
# it, one with none is nullary), a digit kind's 0-digit letter before its
# 1-digit letter, which binary's builder and walker convert through as the
# bits 0 and 1; the names there of its conversions from and to a machine
# integer; and the message of its canonicality rule, or None.  The rule is
# the layer's own _canonical over a chain's innermost digit (as the
# builder's bit, or "" for none) and its tail; in a literal only the
# innermost digit can break canonicality, as every other wraps a digit.
_Kind = collections.namedtuple("_Kind", "layer alphabet from_int to_int canonical")
_MAKE: Dict[str, _Kind] = {
    "unary": _Kind("unary", {"Z": "Zero", "S": "Succ"}, "from_int", "to_int", None),
    "binary": _Kind("binary", {"Z": "Zero", "A": "Even", "B": "Odd"}, "from_int", "to_int",
                    "non-canonical literal: A applied directly to Z"),
    "twoscomp": _Kind("twoscomp", {"Z": "Zero", "N": "MinusOne", "A": "Even", "B": "Odd"}, "from_int", "to_int",
                      "non-canonical literal: A applied directly to Z, or B directly to N"),
    "cd": _Kind("braun", {"Z": "IxZero", "C": "IxOdd", "D": "IxEven"}, "cd_from_int", "cd_to_int", None),
}

# each kind used so far -> (its row resolved: the layer's module, the
# alphabet's classes, the conversions and the rule, or None; its pattern;
# its parsing table, digit letter -> bit, or None; its (0-digit, 1-digit)
# classes, or None for unary); printing tables: each class's letter, and
# each wrapper class's reader, which reads a whole run of its kind's
# wrappers at once and returns (the run's letters, outermost first; what
# follows the run).  Two threads that build one kind at once store equal
# entries, _BUILT keeps the first, and a kind is in _BUILT only once its
# printing entries are in.
_BUILT: Dict[str, Tuple[_Kind, "re.Pattern[str]", Any, Any]] = {}
_LETTERS: Dict[type, str] = {}
_RUNS: Dict[type, Callable[[Any], Tuple[str, Any]]] = {}


def _known(kind: str, error: type = KeyError) -> str:
    """kind, if it is a numeral kind; else raise error, KeyError unless told, naming it."""
    if kind not in _MAKE:
        raise error(f"unknown numeral kind: {_shown(repr(kind))}")
    return kind


def _build(kind: str) -> Tuple[_Kind, "re.Pattern[str]", Any, Any]:
    """kind's entry in _BUILT: import its layer and resolve its row's names
    there, and make its tables; KeyError naming an unknown kind."""
    plain = _MAKE[_known(kind)]
    layer = importlib.import_module(f"{__package__}.{plain.layer}")
    alphabet = {c: getattr(layer, name) for c, name in plain.alphabet.items()}
    row = _Kind(layer, alphabet, getattr(layer, plain.from_int), getattr(layer, plain.to_int),
                None if plain.canonical is None else layer._canonical)
    wrappers = "".join(c for c, k in alphabet.items() if k.__slots__)
    # the one pattern over a literal's whitespace-free text, from the
    # alphabet: the openings (wrapper letters each followed by "("), then a
    # wrapper letter with no "(", a nullary letter or neither, then the
    # closers.  It matches any text from its start; a literal is a match
    # that took the nullary letter, closes each opening once and reaches the
    # end, and any other match says where the literal goes wrong.
    pattern = re.compile(r"((?:[{0}]\()*)(?:([{0}])|([{1}]))?(\)*)".format(
        wrappers, "".join(c for c, k in alphabet.items() if not k.__slots__)))
    _LETTERS.update((k, c) for c, k in alphabet.items())
    if len(wrappers) == 2:  # a 0-digit and a 1-digit: binary's walker reads a run of them as bits
        digits = (alphabet[wrappers[0]], alphabet[wrappers[1]])
        to_letters, to_bits = str.maketrans("01", wrappers), str.maketrans(wrappers, "01")

        def read(x: Any) -> Tuple[str, Any]:
            bits, rest = _bits(x, *digits)
            return bits[::-1].translate(to_letters), rest
        _RUNS.update(dict.fromkeys(digits, read))
    else:  # unary: the layer's walk counts a run of its one wrapper
        def read(x: Any) -> Tuple[str, Any]:
            n, rest = layer._layers(x)
            return wrappers * n, rest
        _RUNS[alphabet[wrappers]] = read
        to_bits = digits = None
    return _BUILT.setdefault(kind, (row, pattern, to_bits, digits))


def _build_loaded() -> bool:
    """Build the row of each kind whose layer is loaded and whose row is not;
    whether there was one."""
    new = [kind for kind, plain in _MAKE.items()
           if kind not in _BUILT and f"{__package__}.{plain.layer}" in sys.modules]
    for kind in new:
        _build(kind)
    return bool(new)


KINDS: Mapping = _OnFirstUse(_MAKE, lambda kind: (_BUILT.get(kind) or _build(kind))[0])  # kind -> its row, resolved


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive.  An unknown
    kind raises ValueError, quoting at most 60 characters of its repr."""
    row, pattern, to_bits, digits = _BUILT.get(kind) or _build(_known(kind, ValueError))
    compact = "".join(text.split())
    m = pattern.match(compact)
    if not m[3] or 2 * len(m[4]) != len(m[1]) or m.end() != len(compact):
        raise _syntax_error(text, m)
    if to_bits is None:  # unary: n openings are all S, the numeral n, off the shared tower
        return row.from_int(len(m[4]))
    bits = m[1][-2::-2].translate(to_bits)  # "A(B(" -> "10": innermost first
    tail = row.alphabet[m[3]]()
    if row.canonical is not None and not row.canonical(bits[:1], tail):
        raise CanonicalityError(_MAKE[kind].canonical)
    return _from_bits(bits, tail, *digits)


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

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

This module imports only :mod:`numrep.binary`.  ``_build(row)``
imports a kind's layer (:mod:`numrep.braun` for ``cd``), resolves the
row's names there, makes the kind's pattern and adds its classes to the
printer's table; :data:`KINDS`, ``binary``'s on-first-use table, makes
a kind's entry so on the kind's first use, by :func:`parse_numeral` or
``KINDS[kind]``, keeps it, and refuses an unknown kind.  Naming,
listing or testing the kinds imports no layer, and ``KINDS[kind]`` of
an unknown kind, an unhashable one such as a list too, raises KeyError
naming it, as :func:`parse_numeral` raises ValueError; ``[] in KINDS``
is False.  When the printer meets a class it has no reader for, it
makes the entries of the kinds whose layers are loaded and looks again,
so a value of any kind prints although its kind was never named.  A
process that reads and prints binary literals compiles no other layer.

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
call wraps them onto the tail.  The printer reads one table, each class
of a kind made so far -> its reader, which returns the letters it read
and what follows them.  A wrapper class's reader reads a whole run of
its kind's wrappers: a digit's is binary's walker, whose bits translate
back to letters, and unary's wrapper's is the walk that
:func:`numrep.unary.to_int` counts with, repeating the wrapper's letter.
A nullary class's reader reads its letter, which ends the text.  A
kind's first use adds all of its classes to the table in one step, so a
printer in another thread sees all of them or none.  The printer loops
over runs and never recurses, so a chain of any length prints.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import re
import sys
from typing import Any, Callable, Dict, List, Tuple

from .binary import CanonicalityError, _bits, _from_bits, _OnFirstUse


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

# the printer's table: each class of a kind made so far -> its reader, which
# returns (the letters it read, outermost first; what follows them, or _END
# after a nullary class's letter)
_END = object()
_PRINT: Dict[type, Callable[[Any], Tuple[str, Any]]] = {}


def _build(plain: _Kind) -> Tuple[_Kind, "re.Pattern[str]", Any, Any]:
    """A kind's entry, made from its row: import its layer and resolve the
    row's names there, make its pattern, and add its classes' readers to
    the printer's table.  The entry is (the row resolved: the layer's
    module, the alphabet's classes, the conversions and the rule, or None;
    the pattern; the parsing table, digit letter -> bit, or None; the
    (0-digit, 1-digit) classes, or None for unary)."""
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
    readers = {k: (lambda x, done=(c, _END): done) for c, k in alphabet.items() if not k.__slots__}
    if len(wrappers) == 2:  # a 0-digit and a 1-digit: binary's walker reads a run of them as bits
        digits = (alphabet[wrappers[0]], alphabet[wrappers[1]])
        to_letters, to_bits = str.maketrans("01", wrappers), str.maketrans(wrappers, "01")

        def read(x: Any) -> Tuple[str, Any]:
            bits, rest = _bits(x, *digits)
            return bits[::-1].translate(to_letters), rest
        readers.update(dict.fromkeys(digits, read))
    else:  # unary: the layer's walk counts a run of its one wrapper
        def read(x: Any) -> Tuple[str, Any]:
            n, rest = layer._layers(x)
            return wrappers * n, rest
        readers[alphabet[wrappers]] = read
        to_bits = digits = None
    _PRINT.update(readers)  # in one step: a printer in another thread sees all of the kind's classes or none
    return row, pattern, to_bits, digits


# kind -> its row, resolved; KINDS.entry(kind) is _build of its plain row
KINDS: _OnFirstUse = _OnFirstUse(_MAKE, _build, "numeral kind", 0)


def _build_loaded() -> None:
    """Make the entry of each kind whose layer is loaded."""
    for kind, plain in _MAKE.items():
        if f"{__package__}.{plain.layer}" in sys.modules:
            KINDS.entry(kind)


def parse_numeral(text: str, kind: str) -> Any:
    """Parse a literal of the given kind; whitespace-insensitive.  An unknown
    kind, an unhashable one too, raises ValueError, quoting at most 60
    characters of its repr; a text that is not a str raises TypeError
    naming its type."""
    row, pattern, to_bits, digits = KINDS.entry(kind, ValueError)
    if not isinstance(text, str):
        raise TypeError(f"a numeral literal must be a str, not {type(text).__name__}")
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
    parts = []  # the letters of each run, outermost first
    rest = value
    while rest is not _END:
        read = _PRINT.get(type(rest))
        if read is None:  # a kind not yet used: a value of it means its layer is loaded
            _build_loaded()
            read = _PRINT.get(type(rest))
            if read is None:
                raise TypeError(f"not a printable numeral: {rest!r}")
        letters, rest = read(rest)
        parts.append(letters)
    letters = "".join(parts)
    return "(".join(letters) + ")" * (len(letters) - 1)


def csv_emit(rows: List[Tuple[int, int]]) -> str:
    """Benchmark CSV: an ``n,steps`` header then one line per sample."""
    lines = ["n,steps"]
    lines.extend(f"{n},{steps}" for n, steps in rows)
    return "\n".join(lines) + "\n"

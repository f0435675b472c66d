"""Two's-complement integers: the binary digits plus a -1 terminator.

The digit constructors are shared with :mod:`numrep.binary`, so a
nonnegative integer here *is* the corresponding binary natural, same
objects and all.  The only addition to the grammar is the nullary
``MinusOne``, an implicit infinite run of 1 bits.  Canonical form needs
one extra rule mirroring the binary one: ``Odd`` is never applied
directly to ``MinusOne`` (2*(-1)+1 = -1, a redundant trailing 1).

Negation is complement-then-increment, the classic identity; subtraction
is addition of the negation.

Conversions go through base-2 text as in :mod:`numrep.binary`: a
nonnegative integer converts as the binary natural it is, and the digits
of a negative n above its 1s tail are the bits of ~n = -n-1 >= 0,
complemented.
"""

from __future__ import annotations

from typing import Any, Union

from . import binary
from .binary import (CanonicalityError, Even, Numeral, Odd, Zero, _bits, _fill_odd, _from_bits, _lead,
                     _new, _shown, even)

__all__ = [
    "MinusOne", "TcInt", "CanonicalityError", "Even", "Odd", "Zero",
    "even", "odd", "from_int", "to_int", "is_canonical", "complement",
    "add1", "sub1", "add", "add_plus1", "neg", "sub",
    "render_bits", "parse_bits",
]


class MinusOne(Numeral):
    """The integer -1: an infinite tail of 1 bits."""

    __slots__ = ()


TcInt = Union[Zero, MinusOne, Even, Odd]

_FLIP = str.maketrans("01", "10")


def odd(x: TcInt) -> TcInt:
    # 2 * -1 + 1 = -1, the signed counterpart of even() collapsing on zero;
    # any other digit is built as binary.odd builds it, without a class call
    if type(x) is MinusOne:
        return x
    digit = _new(Odd)
    _fill_odd(digit, x)
    return digit


def from_int(n: int) -> TcInt:
    """Two's-complement digits of n, least significant outermost."""
    if n >= 0:
        return binary.from_int(n)
    # the complemented bits of ~n = -n - 1 >= 0; the strip empties -1's lone bit
    return _from_bits(bin(~n)[2:].translate(_FLIP).lstrip("1"), MinusOne())


def to_int(x: TcInt) -> int:
    """Inverse of :func:`from_int`; rejects non-canonical input."""
    bits, tail = _bits(x)
    if not _canonical(bits[:1], tail):
        raise CanonicalityError(f"non-canonical two's-complement value: {x!r}")
    if type(tail) is MinusOne:
        return ~int(bits.translate(_FLIP) or "0", 2)
    return int(bits or "0", 2)


def is_canonical(x: TcInt) -> bool:
    """No ``Even`` directly on ``Zero``, no ``Odd`` directly on ``MinusOne``."""
    return _canonical(*_lead(x))


def _canonical(lead: str, tail: Any) -> bool:
    """The rules over a digit chain's innermost digit and its tail: the chain
    ends in ``Zero`` or ``MinusOne``, and its innermost digit, the only one
    that can wrap the tail, does not repeat the tail's bit."""
    tt = type(tail)
    if tt is Zero:
        return lead != "0"
    return tt is MinusOne and lead != "1"


def complement(x: TcInt) -> TcInt:
    """Bitwise NOT: swaps the digit constructors and the two tails.

    Sends n to -n-1.  The two canonicality rules swap into each other,
    so plain constructors stay canonical here.
    """
    tx = type(x)
    if tx is Zero:
        return MinusOne()
    if tx is MinusOne:
        return Zero()
    if tx is Even:
        return Odd(complement(x.rest))
    if tx is Odd:
        return Even(complement(x.rest))
    raise TypeError(f"not a two's-complement value: {x!r}")


def add1(x: TcInt) -> TcInt:
    tx = type(x)
    if tx is Zero:
        return Odd(Zero())
    if tx is MinusOne:
        return Zero()
    if tx is Even:
        return odd(x.rest)
    if tx is Odd:
        return even(add1(x.rest))
    raise TypeError(f"not a two's-complement value: {x!r}")


def sub1(x: TcInt) -> TcInt:
    tx = type(x)
    if tx is Zero:
        return MinusOne()
    if tx is MinusOne:
        return Even(MinusOne())
    if tx is Even:
        return odd(sub1(x.rest))
    if tx is Odd:
        return even(x.rest)
    raise TypeError(f"not a two's-complement value: {x!r}")


def add(x: TcInt, y: TcInt) -> TcInt:
    """Signed addition.

    On nonnegative arguments only the digit clauses fire, and they are
    the clauses of :func:`numrep.binary.add_v2`, so the result is the
    identical structure.  The ``MinusOne`` clauses thread the infinite
    1 tail through the same digit recursion.
    """
    tx, ty = type(x), type(y)
    if ty is Zero:
        return x
    if tx is Zero:
        return y
    if tx is MinusOne:
        if ty is MinusOne:
            return Even(MinusOne())
        if ty is Even:
            return odd(add(MinusOne(), y.rest))
        if ty is Odd:
            return even(y.rest)
    elif ty is MinusOne:
        if tx is Even:
            return odd(add(x.rest, MinusOne()))
        if tx is Odd:
            return even(x.rest)
    elif tx is Even:
        if ty is Even:
            return even(add(x.rest, y.rest))
        if ty is Odd:
            return odd(add(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return odd(add(x.rest, y.rest))
        if ty is Odd:
            return even(add_plus1(x.rest, y.rest))
    raise TypeError(f"not two's-complement values: {x!r}, {y!r}")


def add_plus1(x: TcInt, y: TcInt) -> TcInt:
    """x + y + 1, mutually recursive with :func:`add`."""
    tx, ty = type(x), type(y)
    if ty is MinusOne:
        return x
    if tx is MinusOne:
        return y
    if tx is Zero:
        if ty is Zero:
            return Odd(Zero())
        if ty is Even:
            return odd(y.rest)
        if ty is Odd:
            return even(add_plus1(Zero(), y.rest))
    elif ty is Zero:
        if tx is Even:
            return odd(x.rest)
        if tx is Odd:
            return even(add_plus1(x.rest, Zero()))
    elif tx is Even:
        if ty is Even:
            return odd(add(x.rest, y.rest))
        if ty is Odd:
            return even(add_plus1(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return even(add_plus1(x.rest, y.rest))
        if ty is Odd:
            return odd(add_plus1(x.rest, y.rest))
    raise TypeError(f"not two's-complement values: {x!r}, {y!r}")


def neg(x: TcInt) -> TcInt:
    """Negation as complement plus one."""
    return add1(complement(x))


def sub(x: TcInt, y: TcInt) -> TcInt:
    """Subtraction as addition of the negation."""
    return add(x, neg(y))


def render_bits(x: TcInt) -> str:
    """Bit-string form, most significant digit leftmost.

    The infinite tail prints as ``...0`` (zero tail) or ``...1`` (ones
    tail), followed by one 0/1 per digit constructor.  The sole
    exception is -1 itself, which prints as ``...11`` so that it carries
    one explicit bit.  Assumes canonical input.
    """
    bits, tail = _bits(x)
    if type(tail) is MinusOne:
        return "...1" + (bits or "1")
    if type(tail) is not Zero:
        raise TypeError(f"not a two's-complement value: {x!r}")
    return "...0" + bits


def parse_bits(text: str) -> TcInt:
    """Inverse of :func:`render_bits`; normalizes redundant leading bits."""
    s = text.strip()
    if not s.startswith("..."):
        raise ValueError(f"bit string must start with '...': {_shown(text)!r}")
    body = s[3:]
    if not body or any(c not in "01" for c in body):
        raise ValueError(f"bit string needs a 0/1 tail digit and bits: {_shown(text)!r}")
    tail, digits = body[0], body[1:]
    # explicit copies of the tail bit on the left are part of the tail
    return _from_bits(digits.lstrip(tail), MinusOne() if tail == "1" else Zero())

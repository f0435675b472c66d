"""Peano naturals: numbers as towers of ``Succ`` over ``Zero``.

A value with n ``Succ`` layers denotes n.  This is the deliberately
wasteful baseline the binary representations improve on; its arithmetic
is written clause by clause so the recursion shapes stay visible.  All
values are immutable and compare structurally, at any height: ``==``,
``hash`` and ``repr`` come from :class:`numrep.binary.Numeral`, and
assigning to a field raises AttributeError.
"""

from __future__ import annotations

from typing import Union

from .binary import Numeral


class Zero(Numeral):
    """The natural number 0."""

    __slots__ = ()


class Succ(Numeral):
    """The successor of ``pred``."""

    __slots__ = ("pred",)


UnaryNat = Union[Zero, Succ]


def from_int(n: int) -> UnaryNat:
    """Wrap ``Zero`` in n layers of ``Succ``.

    Raises ValueError for negative n: unary naturals have no sign.
    """
    if n < 0:
        raise ValueError(f"cannot represent {n} as a unary natural")
    value: UnaryNat = Zero()
    for _ in range(n):
        value = Succ(value)
    return value


def to_int(x: UnaryNat) -> int:
    """Count ``Succ`` layers; inverse of :func:`from_int`."""
    n = 0
    while isinstance(x, Succ):
        n += 1
        x = x.pred
    if not isinstance(x, Zero):
        raise TypeError(f"not a unary natural: {x!r}")
    return n


def plus(x: UnaryNat, y: UnaryNat) -> UnaryNat:
    """Structural addition: peel the second argument, rewrap the result."""
    ty = type(y)
    if ty is Zero:
        return x
    if ty is Succ:
        return Succ(plus(x, y.pred))
    raise TypeError(f"not a unary natural: {y!r}")


def add(x: UnaryNat, y: UnaryNat) -> UnaryNat:
    """Accumulative addition: the first argument accumulates, tail style.

    Same function as :func:`plus` extensionally, but the recursion moves
    layers onto the accumulator instead of wrapping on the way out.
    """
    ty = type(y)
    if ty is Zero:
        return x
    if ty is Succ:
        return add(Succ(x), y.pred)
    raise TypeError(f"not a unary natural: {y!r}")


def mult(x: UnaryNat, y: UnaryNat) -> UnaryNat:
    """Repeated addition, structural on the second argument."""
    ty = type(y)
    if ty is Zero:
        return Zero()
    if ty is Succ:
        return plus(x, mult(x, y.pred))
    raise TypeError(f"not a unary natural: {y!r}")

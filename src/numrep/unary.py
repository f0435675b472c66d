"""Peano naturals: numbers as towers of ``Succ`` over ``Zero``.

A value with n ``Succ`` layers denotes n.  This is the deliberately
wasteful baseline the binary representations improve on; its arithmetic
is written clause by clause so the recursion shapes stay visible.  All
values are immutable and compare structurally, at any height: ``==``,
``hash`` and ``repr`` come from :class:`numrep.binary.Numeral`, and
assigning to a field raises AttributeError.

Like Haskell's ``iterate Succ Zero``, the values :func:`from_int` returns
share one tower of nodes: for m < n <= 2**16 the numeral for m is the
very node inside the numeral for n, so each height is built once per
process, and the tower keeps at most 2**16 + 1 nodes (about 3 MB).  A
larger numeral is built fresh above the tower's top, up to a height of
2**20; :func:`from_int` refuses a larger one.  A unary literal
parsed by :func:`numrep.numio.parse_numeral` comes from :func:`from_int`
too, so it lands on the same tower.  Whether two results are the same
object is not part of the API; compare values with ``==``.
"""

from __future__ import annotations

import operator
import threading
from typing import List, Union

from .binary import Numeral, _number


class Zero(Numeral):
    """The natural number 0."""

    __slots__ = ()


class Succ(Numeral):
    """The successor of ``pred``."""

    __slots__ = ("pred",)


UnaryNat = Union[Zero, Succ]


# _tower[k] denotes k.  It grows on demand, up to a height of _TOWER_CAP,
# under _tower_lock: two threads appending at once could store a height at
# the wrong index.  Heights above the cap are built fresh and not kept,
# up to _HEIGHT_CAP: above it from_int refuses, as its nodes and time would
# be unbounded.  The meter's largest unary input is below it.
_TOWER_CAP = 2 ** 16
_HEIGHT_CAP = 2 ** 20
_tower: List[UnaryNat] = [Zero()]
_tower_lock = threading.Lock()


def from_int(n: int) -> UnaryNat:
    """Wrap ``Zero`` in n layers of ``Succ``.

    Raises ValueError for negative n, as unary naturals have no sign, and
    for n over ``_HEIGHT_CAP`` (2**20), before building any node.
    """
    if n < 0:
        raise ValueError(f"cannot represent {_number(n, 'a negative number')} as a unary natural")
    n = operator.index(n)  # a float raises TypeError before the tower grows
    if n > _HEIGHT_CAP:
        raise ValueError(f"cannot represent {_number(n, 'a number')} as a unary natural: "
                         f"over the height bound of {_HEIGHT_CAP}")
    tower = _tower
    if n < len(tower):
        return tower[n]
    top = min(n, _TOWER_CAP)
    with _tower_lock:
        while len(tower) <= top:
            tower.append(Succ(tower[-1]))
    value = tower[top]
    for _ in range(n - top):
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

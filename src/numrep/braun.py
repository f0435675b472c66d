"""Braun-tree sequences indexed by bijective base-2 numerals.

An index numeral is built from ``IxOdd`` (n -> 2n+1) and ``IxEven``
(n -> 2n+2) over ``IxZero``, least significant digit outermost.  Unlike
ordinary binary, every digit string denotes a distinct number and every
number has exactly one digit string, with no extra canonicality rule.

That bijectivity is what makes the numerals usable as tree paths: store
element 0 at the root, elements with odd index in the left subtree and
elements with even index >= 2 in the right, recursively.  The digits of
an index then spell its root-to-node path (odd digit: left, even digit:
right), every node holds an element, and the tree is a Braun tree: at
each node the left subtree has the same size as the right or one more.

Had we used the ordinary 0-based binary digits as paths instead, the
leading-zero rule would bite: no index's digit string ends with the
doubling digit, so the slot at every left child would sit permanently
empty and half the tree would be wasted.  Starting the digit values at
1 and 2 closes the gap (see the negative demonstration in the tests).

The index numeral of i is spelled by the binary digits of i + 1 below
its leading 1, with a 0 bit for ``IxOdd`` and a 1 bit for ``IxEven``
(Okasaki, "Three Algorithms on Braun Trees", JFP 1997): 2n+1 + 1 is
2(n+1) and 2n+2 + 1 is 2(n+1)+1.  The conversions, :func:`replicate`
and :func:`access` read the digits from the text of i + 1, in
O(digits) with no big-int arithmetic, and a numeral has
(i + 1).bit_length() - 1 digits.

The tree is built and read by rows, in loops (Okasaki again): row k
holds the elements 2^k - 1 to 2^(k+1) - 2, node j of a row w wide has
children j and j + w of the row below, and so the row below is the left
children of the row followed by its right children.  That is Okasaki's
``fromList``; his ``copy`` is :func:`replicate`, n copies of one element
in O(log n) nodes.  A tree's shape depends only on its size, so the two
subtrees of a tree of size 2m+1 are one tree of size m, and those of a
tree of size 2m+2 are trees of sizes m+1 and m: building the pair (size
m+1, size m) up along n's index digits shares every equal subtree.

Sequences are persistent: every operation returns a new value and never
touches the old one, sharing untouched subtrees.  ``BraunSeq`` carries
an explicit length so range and emptiness checks are constant time; the
nodes themselves store no sizes.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Union

from .binary import Numeral, Record, _bits, _from_bits, _number


class IxZero(Numeral):
    """Index 0: the empty digit string."""

    __slots__ = ()


class IxOdd(Numeral):
    """Index digit for 2n+1."""

    __slots__ = ("rest",)


class IxEven(Numeral):
    """Index digit for 2n+2."""

    __slots__ = ("rest",)


CdIndex = Union[IxZero, IxOdd, IxEven]

_REPR_NODES = 1000  # the most nodes a tree's repr spells out


class Node(Record):
    """One tree node: an element and its two subtrees.

    ``repr`` spells out, in a loop, at most the first ``_REPR_NODES`` nodes
    in preorder and prints each subtree past them as ``...``: a replicated
    tree shares its nodes, but its text would spell out every position.
    """

    __slots__ = ("elem", "left", "right")

    def __repr__(self) -> str:
        parts, todo, budget = [], [(self, "")], _REPR_NODES
        while todo:
            x, tail = todo.pop()  # tail: the text that follows x's subtree
            if not isinstance(x, Node):
                parts.append(repr(x))
            elif not budget:
                parts.append("...")
            else:
                budget -= 1
                parts.append(f"{type(x).__qualname__}(elem={x.elem!r}, left=")
                todo += ((x.right, ")" + tail), (x.left, ", right="))
                continue
            parts.append(tail)
        return "".join(parts)


BraunTree = Optional[Node]  # None is the empty tree


class BraunSeq(Record):
    """A sequence stored as a Braun tree plus its cached length."""

    __slots__ = ("length", "tree")

    def __len__(self) -> int:
        return self.length


EMPTY = BraunSeq(0, None)


def cd_from_int(n: int) -> CdIndex:
    """Index numeral of n, least significant digit outermost."""
    if n < 0:
        raise ValueError(f"cannot represent {_number(n, 'a negative number')} as an index numeral")
    return _from_bits(bin(n + 1)[3:], IxZero(), zero=IxOdd, one=IxEven)


def cd_to_int(ix: CdIndex) -> int:
    """Inverse of :func:`cd_from_int`."""
    bits, tail = _bits(ix, zero=IxOdd, one=IxEven)
    if type(tail) is not IxZero:
        raise TypeError(f"not an index numeral: {ix!r}")
    return int("1" + bits, 2) - 1


def from_list(xs: Iterable[Any]) -> BraunSeq:
    """Build a sequence; odd positions go left, even positions right."""
    items = list(xs)
    below: List[BraunTree] = []
    for k in reversed(range(len(items).bit_length())):
        w = 1 << k
        below += [None] * (2 * w - len(below))  # empty trees up to full width
        # one map pairs node j of the row with children j and j + w of the
        # row below; it stops at the row, the shortest of its three inputs
        below = list(map(Node, items[w - 1 : 2 * w - 1], below, below[w:]))
    return BraunSeq(len(items), below[0] if below else None)


def replicate(n: int, v: Any) -> BraunSeq:
    """n copies of v, from at most 2 * n.bit_length() shared nodes."""
    if n < 0:
        raise ValueError(f"cannot replicate an element: count {_number(n)} is negative")
    big, small = Node(v, None, None), None  # the trees of sizes m + 1 and m
    for bit in bin(n + 1)[3:]:  # n's index digits, innermost first: m -> 2m+1 on 0, 2m+2 on 1
        if bit == "0":
            big, small = Node(v, big, small), Node(v, small, small)
        else:
            big, small = Node(v, big, big), Node(v, big, small)
    return BraunSeq(n, small)


def to_list(s: BraunSeq) -> List[Any]:
    """Enumerate elements in index order; inverse of :func:`from_list`."""
    out: List[Any] = []
    row = [] if s.tree is None else [s.tree]  # the tree's rows top down, each in index order
    while row:
        out += [n.elem for n in row]
        lefts = [n.left for n in row if n.left is not None]
        row = lefts + [n.right for n in row if n.right is not None]
    return out


def _out_of_range(i: int, length: int) -> IndexError:
    return IndexError(f"index {_number(i)} out of range for length {_number(length)}")


def access(s: BraunSeq, i: int) -> Any:
    """Element at index i, by descending along i's digits.

    The digits are read from the text of i + 1, as :func:`cd_from_int`
    and :func:`replicate` read them, but outermost (last) first:
    O(digits), with no big-int arithmetic per level.
    """
    if not 0 <= i < s.length:
        raise _out_of_range(i, s.length)
    node = s.tree
    for digit in bin(i + 1)[:2:-1]:  # i's digits, outermost first: 0 goes left, 1 right
        node = node.right if digit == "1" else node.left
    return node.elem


def access_cd(s: BraunSeq, ix: CdIndex) -> Any:
    """Element at a structured index: pure digit descent, no arithmetic.

    Range is not pre-checked; running off the tree raises IndexError.
    """
    node = s.tree
    while True:
        if node is None:
            raise IndexError("index reaches past the sequence end")
        tix = type(ix)
        if tix is IxZero:
            return node.elem
        if tix is IxOdd:
            node, ix = node.left, ix.rest
        elif tix is IxEven:
            node, ix = node.right, ix.rest
        else:
            raise TypeError(f"not an index numeral: {ix!r}")


def update(s: BraunSeq, i: int, v: Any) -> BraunSeq:
    """Copy of s with element i replaced by v; only the path is copied."""
    if not 0 <= i < s.length:
        raise _out_of_range(i, s.length)
    return BraunSeq(s.length, _update(s.tree, i, v))


def _update(node: Node, j: int, v: Any) -> Node:
    # node's tree with element j replaced by v, copying the path to it
    if j == 0:
        return Node(v, node.left, node.right)
    if j & 1:
        return Node(node.elem, _update(node.left, (j - 1) >> 1, v), node.right)
    return Node(node.elem, node.left, _update(node.right, (j - 2) >> 1, v))


def cons(v: Any, s: BraunSeq) -> BraunSeq:
    """Prepend v.  Every old index shifts up by one, which turns the old
    left subtree into the new right and pushes the old root leftward."""
    return BraunSeq(s.length + 1, _push(v, s.tree))


def first(s: BraunSeq) -> Any:
    """The element at index 0."""
    if s.length == 0:
        raise ValueError("first of an empty sequence")
    return s.tree.elem


def rest(s: BraunSeq) -> BraunSeq:
    """Everything after index 0; the exact inverse of :func:`cons`."""
    if s.length == 0:
        raise ValueError("rest of an empty sequence")
    return BraunSeq(s.length - 1, _untop(s.tree)[1])


def _push(w: Any, node: BraunTree) -> Node:
    # (tree of w followed by the elements of node), in one right-spine pass
    if node is None:
        return Node(w, None, None)
    return Node(w, _push(node.elem, node.right), node.left)


def _untop(node: Node) -> tuple:
    # (root element, tree with the root removed), in one left-spine pass
    if node.left is None:
        return node.elem, None
    head, left_rest = _untop(node.left)
    return node.elem, Node(head, node.right, left_rest)


def depth(s: BraunSeq) -> int:
    """Longest root-to-node path, counted in nodes (empty tree: 0).

    A Braun tree's left subtree is never smaller than its right, so the
    left spine is a longest path, and this reads only that spine: O(log n)
    (``checks._br_shape`` checks the invariant after every operation).
    """
    count, node = 0, s.tree
    while node is not None:
        count, node = count + 1, node.left
    return count

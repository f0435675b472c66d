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
``fromList``.  :func:`from_list` allocates a row's nodes with
``object.__new__`` and then fills one slot of the whole row per ``map``
pass, through the slot's setter, as ``binary._from_bits`` fills a digit:
no node calls the class and so enters the generated ``__init__``, and
each node is the value a class call makes.  Okasaki's ``copy`` is
:func:`replicate`, n copies of one element in O(log n) nodes.  A tree's
shape depends only on its size, so the two subtrees of a tree of size
2m+1 are one tree of size m, and those of a tree of size 2m+2 are trees
of sizes m+1 and m: building the pair (size m+1, size m) up along n's
index digits shares every equal subtree.

Sequences are persistent: every operation returns a new value and never
touches the old one, sharing untouched subtrees.  ``BraunSeq`` carries
an explicit length so range and emptiness checks are constant time; the
nodes themselves store no sizes.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
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

    A replicated tree shares its nodes, but its positions are as many as
    its length, so nothing here walks the positions.  ``repr`` spells out,
    in a loop, at most the first ``_REPR_NODES`` nodes in preorder and
    prints each subtree past them as ``...``.  ``==`` and ``hash`` keep
    ``Record``'s meaning, the tuple of the fields, but are loops over an
    explicit stack that visit each distinct pair of nodes, or each
    distinct node, once.
    """

    __slots__ = ("elem", "left", "right")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        seen, todo = set(), [(self, other)]  # pairs of values in the same slot
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b) or not isinstance(a, Node):
                if not a == b:  # a leaf, or a foreign value, compared as a tuple would
                    return False
                continue
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if not (a.elem is b.elem or a.elem == b.elem):
                return False
            todo += ((a.right, b.right), (a.left, b.left))  # in the tuple's order: left first
        return True

    def __hash__(self) -> int:
        done = {}  # id of each node hashed -> a stand-in that hashes as it does
        todo = [self]  # a path down from self: each node waits for its children
        while todo:
            x = todo[-1]
            left, right = x.left, x.right
            if isinstance(left, Node) and id(left) not in done:
                todo.append(left)
            elif isinstance(right, Node) and id(right) not in done:
                todo.append(right)
            else:
                todo.pop()
                fields = x.elem, done.get(id(left), left), done.get(id(right), right)
                done[id(x)] = _Hashed(hash(fields))
        return int(done[id(self)])

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


class _Hashed(int):
    """A subtree's hash, standing in for the subtree in its parent's field
    tuple: it hashes as itself, where a plain int's hash would reduce it."""

    __slots__ = ()
    __hash__ = int.__index__


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
    new, fill_elem = object.__new__, Node.elem.__set__
    fill_left, fill_right = Node.left.__set__, Node.right.__set__
    below: List[BraunTree] = []
    for k in reversed(range(len(items).bit_length())):
        w = 1 << k
        below += [None] * (2 * w - len(below))  # empty trees up to full width
        row = items[w - 1 : 2 * w - 1]
        # allocate the row's nodes, then fill one slot of every node per
        # pass: node j gets element j of the row and children j and j + w
        # of the row below; each pass stops at the row, its shortest input
        nodes = list(map(new, repeat(Node, len(row))))
        deque(map(fill_elem, nodes, row), maxlen=0)
        deque(map(fill_left, nodes, below), maxlen=0)
        deque(map(fill_right, nodes, below[w:]), maxlen=0)
        below = nodes
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

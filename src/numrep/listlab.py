"""List-recursion exemplars: structural vs accumulative sum, filter, and a
deliberately exponential maximum.

Each function keeps its clause shape on purpose: the cost meter counts
entries into these bodies, so "obvious" rewrites would change the measured
complexity class.  The functions take any sequence; ``xs[1:]`` stands for
the rest of a cons list.  Recursion depth caps practical lengths near
Python's recursion limit (the meter raises the limit while measuring).
"""

from __future__ import annotations

from typing import Callable, List, Sequence


def sumlist(xs: Sequence[int]) -> int:
    """Structurally recursive sum: head plus sum of the rest."""
    if not xs:
        return 0
    return xs[0] + sumlist(xs[1:])


def sumh(xs: Sequence[int], acc: int) -> int:
    """Accumulating sum helper; returns acc plus the sum of xs."""
    if not xs:
        return acc
    return sumh(xs[1:], xs[0] + acc)


def sumlist2(xs: Sequence[int]) -> int:
    """Sum via the accumulator, seeded with 0."""
    return sumh(xs, 0)


def filter_keep(p: Callable[[int], bool], xs: Sequence[int]) -> List[int]:
    """Keep the elements satisfying p, preserving order."""
    if not xs:
        return []
    x, rest = xs[0], xs[1:]
    if p(x):
        return [x] + filter_keep(p, rest)
    return filter_keep(p, rest)


def max_naive(xs: Sequence[int]) -> int:
    """Maximum of a nonempty list, with the recursive result recomputed.

    WARNING: do not "fix" this function.  The recursive maximum is
    evaluated once in the comparison and again in the fallthrough branch,
    which is exactly what makes it take 2^n - 1 calls on an ascending
    list.  It exists to exhibit that blowup; :func:`max_fast` is the
    repaired version.
    """
    if not xs:
        raise ValueError("max of an empty list")
    if len(xs) == 1:
        return xs[0]
    x, rest = xs[0], xs[1:]
    if x > max_naive(rest):
        return x
    return max_naive(rest)


def max_fast(xs: Sequence[int]) -> int:
    """Maximum of a nonempty list, one recursive call per element."""
    if not xs:
        raise ValueError("max of an empty list")
    if len(xs) == 1:
        return xs[0]
    m = max_fast(xs[1:])
    return xs[0] if xs[0] > m else m

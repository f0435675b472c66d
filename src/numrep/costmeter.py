"""Step counts for the recursive operations, taken from the plain functions.

A measurement runs the plain function itself with a ``sys.setprofile``
hook and counts every ``call`` event whose code belongs to the functions
listed for its operation id, recursive entries and base clauses
included.  Each operation has one definition: the hook is installed only
inside :func:`measured`, so a call made anywhere else pays nothing for
the meter.  Helper bodies count toward their caller's total (add_v1
includes its increments, add_v2 its carry helper, mult its additions);
smart constructors such as ``even`` and ``odd`` are not steps.

    op id        counted functions
    -----------  ------------------------------------------------
    u_plus       unary.plus
    u_add        unary.add
    sumlist      listlab.sumlist
    sumlist2     listlab.sumlist2, listlab.sumh
    filter_keep  listlab.filter_keep (not the predicate)
    max_naive    listlab.max_naive
    max_fast     listlab.max_fast
    b_add1       binary.add1
    b_add_v1     binary.add_v1, binary.add1
    b_add_v2     binary.add_v2, binary.add_plus1
    b_mult       binary.mult, binary.add_v2, binary.add_plus1
    i_add        twoscomp.add, twoscomp.add_plus1
    bs_cons      braun._push (one entry per spine node built)
    bs_rest      braun._untop (one entry per spine node inspected)
    bs_access    closed form, see below

``braun.access`` is a loop, not a recursion, so there are no entries to
count, and ``bs_access`` observes no traversal: it runs the plain
function and reports, by definition, the digit count of the index's
bijective base-2 numeral, ``(i + 1).bit_length() - 1``, which is the
number of nodes the loop descends through.  ``bs_cons`` and ``bs_rest``
stay within depth + 1.

A ``sys.setprofile`` hook belongs to the calling thread on every
supported Python, so threads measure at the same time without seeing
each other's calls; a test that measures from two threads at once guards
this.  Whatever profiler the caller had running is active again when
:func:`measured` returns: a ``sys.setprofile`` hook is put back, and an
enabled ``cProfile.Profile`` (which the hook displaces on 3.11 and
earlier; from 3.12 on it runs on ``sys.monitoring`` and is left alone)
is enabled again.

Benchmark sizes mean, per operation: the denoted value for the unary
ops, the list length for the list ops, the digit count of an all-ones
operand for the binary and signed ops (the worst carry chains), and the
sequence length for the Braun ops (which access their last index).

The list ops' worst-case inputs are ascending ``range`` objects, not
lists.  A ``range`` slice is O(1) where a list slice copies the rest,
so the ``xs[1:]`` in each frame no longer makes a run O(n^2) in time and
memory; and its indexing, ``len`` and truth test are C calls, which the
hook does not see, so the step counts are the lists' exactly.
"""

from __future__ import annotations

import _lsprof
import contextlib
import sys
import threading
from types import CodeType
from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import binary, braun, listlab, twoscomp, unary
from .binary import Record


# Frozen linear-bound constants for the two addition algorithms: over all
# operand pairs with values <= 512 the worst measured ratio of total body
# entries to (max digit count + 1) is 1.9 for add_v1 (at 257 + 511, 19
# entries against 10) and exactly 1.0 for add_v2.  Rounded up to integers.
K_ADD_V1 = 2
K_ADD_V2 = 1


# the recursion limit is process-wide: the first of any overlapping
# deep_recursion entries, in any thread, saves and raises it and the last
# exit restores it, so one thread's exit cannot lower it under another's
_depth_lock = threading.Lock()
_depth_entries = 0
_depth_saved = 0


@contextlib.contextmanager
def deep_recursion(limit: int = 50_000):
    """Temporarily raise the interpreter recursion limit for a measurement."""
    global _depth_entries, _depth_saved
    with _depth_lock:
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, limit))
        if _depth_entries == 0:
            _depth_saved = old
        _depth_entries += 1
    try:
        yield
    finally:
        with _depth_lock:
            _depth_entries -= 1
            if _depth_entries == 0:
                sys.setrecursionlimit(_depth_saved)


# op id -> (plain entry function, functions whose entries are its steps);
# bs_access is a loop and counts none
_OPS: Dict[str, Tuple[Callable[..., Any], Tuple[Callable[..., Any], ...]]] = {
    "u_plus": (unary.plus, (unary.plus,)),
    "u_add": (unary.add, (unary.add,)),
    "sumlist": (listlab.sumlist, (listlab.sumlist,)),
    "sumlist2": (listlab.sumlist2, (listlab.sumlist2, listlab.sumh)),
    "filter_keep": (listlab.filter_keep, (listlab.filter_keep,)),
    "max_naive": (listlab.max_naive, (listlab.max_naive,)),
    "max_fast": (listlab.max_fast, (listlab.max_fast,)),
    "b_add1": (binary.add1, (binary.add1,)),
    "b_add_v1": (binary.add_v1, (binary.add_v1, binary.add1)),
    "b_add_v2": (binary.add_v2, (binary.add_v2, binary.add_plus1)),
    "b_mult": (binary.mult, (binary.mult, binary.add_v2, binary.add_plus1)),
    "i_add": (twoscomp.add, (twoscomp.add, twoscomp.add_plus1)),
    "bs_access": (braun.access, ()),
    "bs_cons": (braun.cons, (braun._push,)),
    "bs_rest": (braun.rest, (braun._untop,)),
}

METERED: Dict[str, Callable[..., Any]] = {op_id: fn for op_id, (fn, _) in _OPS.items()}
_COUNTED: Dict[str, Tuple[CodeType, ...]] = {
    op_id: tuple(f.__code__ for f in fns) for op_id, (_, fns) in _OPS.items()
}


def measured(op_id: str, *args: Any) -> Tuple[Any, int]:
    """Run the plain operation and count its steps; return (result, steps)."""
    try:
        fn = METERED[op_id]
    except KeyError:
        raise KeyError(f"unknown operation id: {op_id!r}") from None
    if op_id == "bs_access":  # a loop: one step per index digit
        return fn(*args), (args[1] + 1).bit_length() - 1
    counted = _COUNTED[op_id]
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "call" and frame.f_code in counted:
            steps += 1

    outer = sys.getprofile()
    with deep_recursion():
        sys.setprofile(count)
        try:
            result = fn(*args)
        finally:
            # an enabled cProfile.Profile is displaced by setprofile on 3.11
            # and earlier and must be re-enabled, not passed to setprofile
            # (_lsprof is its builtin core; importing cProfile would slow
            # CLI start-up).  Inline, not a helper: an outer cProfile would
            # see the helper's return but not its call.
            if isinstance(outer, _lsprof.Profiler):
                outer.enable()
            else:
                sys.setprofile(outer)
    return result, steps


def worst_case_args(op_id: str, n: int) -> Tuple[Any, ...]:
    """Canonical worst-case input of size n for an operation id."""
    if op_id in ("u_plus", "u_add"):
        return (unary.from_int(n), unary.from_int(n))
    if op_id in ("sumlist", "sumlist2"):
        return (range(n),)
    if op_id == "filter_keep":
        return ((lambda v: v % 2 == 0), range(n))
    if op_id in ("max_naive", "max_fast"):
        return (range(1, n + 1),)  # ascending: the guard always fails
    if op_id == "b_add1":
        return (binary.from_int((1 << n) - 1),)  # n one-digits: full carry chain
    if op_id in ("b_add_v1", "b_add_v2", "b_mult"):
        return (binary.from_int((1 << n) - 1), binary.from_int((1 << n) - 1))
    if op_id == "i_add":
        return (twoscomp.from_int((1 << n) - 1), twoscomp.from_int((1 << n) - 1))
    if op_id == "bs_access":  # a loop: one step per index digit
        return (braun.from_list(range(n)), n - 1)
    if op_id == "bs_cons":
        return ("x", braun.from_list(range(n)))
    if op_id == "bs_rest":
        return (braun.from_list(range(n)),)
    raise KeyError(f"unknown operation id: {op_id!r}")


def measure_schedule(op_id: str, sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """(size, steps) samples over a size schedule, worst-case inputs."""
    if not sizes:
        raise ValueError("empty size schedule")
    samples = []
    for n in sorted(set(sizes)):
        _, steps = measured(op_id, *worst_case_args(op_id, n))
        samples.append((n, steps))
    return samples


class CostReport(Record):
    """Outcome of checking measured step counts against a bound form.

    ``samples`` holds (size, steps) pairs, sizes increasing.
    """

    __slots__ = ("op_id", "samples", "bound", "k", "passed", "worst_ratio")


_BOUND_FORMS: Dict[str, Callable[[int], int]] = {
    "linear": lambda n: n,
    "logarithmic": lambda n: n.bit_length(),
    "exponential": lambda n: 1 << n,
}


def check_bound(
    op_id: str,
    sizes: Sequence[int],
    bound: str,
    k: int = 1,
    exact: Callable[[int], int] | None = None,
) -> CostReport:
    """Measure over a schedule and verify steps against a bound form.

    The inexact forms check steps <= k*f(size) + k, with f the identity,
    the bit length, or 2**size.  The "exact" form requires the expected
    closed form as a callable and checks equality.
    """
    samples = measure_schedule(op_id, sizes)
    if bound == "exact":
        if exact is None:
            raise ValueError("exact bound needs its closed form")
        passed = all(steps == exact(n) for n, steps in samples)
        worst = max(steps / max(exact(n), 1) for n, steps in samples)
    elif bound in _BOUND_FORMS:
        f = _BOUND_FORMS[bound]
        passed = all(steps <= k * f(n) + k for n, steps in samples)
        worst = max(steps / max(f(n), 1) for n, steps in samples)
    else:
        raise ValueError(f"unknown bound form: {bound!r}")
    return CostReport(op_id, tuple(samples), bound, k, passed, worst)

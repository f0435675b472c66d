"""Step counts for the recursive operations, taken from their own definitions.

A measurement counts every entry into the functions listed for its
operation id, recursive entries and base clauses included, by running
twins: copies compiled from their own source with ``_steps[0] += 1``
first in the body that repeats (the function's own, or that of its
top-level ``while`` or ``for`` if it descends in a loop), in a copy of
the module's namespace, so that their calls and an uncounted entry's
(``braun.cons``) reach the twins.  A twin adds no frame, and the plain
functions pay nothing for the meter.  Each thread builds its own twins
on first use, seeing the module's globals as they were then: the
private module ``numrep._clauses`` reads a counted module's source
through its loader and parses it once for the twins.  From one parse,
the same module also derives each counted function's clause table (its
returns and raises, the type tests that select each, and the counted
calls it makes), which ``tests/clause_table.txt`` pins; the meter does
not build the tables, and no parse tree outlives a build.  Without the source, :func:`measured` raises
:class:`SourceUnavailable`, a ``RuntimeError``.  Helper bodies count
toward their caller's total (add_v1 includes its increments, add_v2
its carry helper, mult its additions); smart constructors such as
``even`` and ``odd`` are not steps.

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
    bs_access    braun.access (one per child descent)

Each op id's row in ``_OPS`` also builds its worst-case input of size n.
Sizes mean, per operation: the denoted value for the unary ops, the list
length for the list ops, the digit count of an all-ones operand for the
binary and signed ops (the worst carry chains, one operand passed
twice), and the sequence length for the Braun ops (which access their
last index).  The row also states the op's smallest size (1 where the
input needs an element, else 0) and a bound on its steps at size n, and
:func:`check_schedule` refuses, before anything is measured, a schedule
with a size below the smallest or one whose bound is over
``STEP_BUDGET`` = 2^20 steps: ``max_naive`` (2^n - 1 steps) is measured
up to size 20, ``b_mult`` (at most (n + 1)^2 steps) up to 1023, and the
linear ops up to about a million, though past 50,000 frames the
recursion limit stops them.

The list ops' worst-case inputs are ascending ``range`` objects, whose
slices cost O(1) where a list's copy the rest, so ``xs[1:]`` does not
make a run O(n^2) in time and memory; the steps are the lists' exactly.
Likewise the Braun ops' inputs are n copies of one element built by
:func:`braun.replicate` in O(log n) shared nodes, not n nodes: a Braun
tree's shape, and so each step count, depends on its size alone.

A measurement runs inside :class:`deep_recursion`, which raises the
recursion limit to at least 50,000 frames.
"""

from __future__ import annotations

import collections
import sys
import threading
import types
from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import binary, braun, listlab, twoscomp, unary
from .binary import Record, _number, _shown


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


class deep_recursion:
    """Raise the interpreter recursion limit to at least 50,000 while inside.

    A class rather than a generator context manager: :func:`measured`
    enters it once per call, and a generator's enter and exit cost about
    twice as much as these two methods."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _depth_entries, _depth_saved
        with _depth_lock:
            old = sys.getrecursionlimit()
            sys.setrecursionlimit(max(old, 50_000))
            if _depth_entries == 0:
                _depth_saved = old
            _depth_entries += 1

    def __exit__(self, *exc_info: Any) -> None:
        global _depth_entries
        with _depth_lock:
            _depth_entries -= 1
            if _depth_entries == 0:
                sys.setrecursionlimit(_depth_saved)


def _all_ones(module):
    """Two operands of n one-digits each, the full carry chain, from n:
    one value, built once and passed twice."""
    return lambda n: (module.from_int((1 << n) - 1),) * 2


# op id -> its row: the plain entry function, the functions whose entries
# are its steps, its worst-case input of size n (the maxima's lists ascend,
# so their guard always fails), its smallest size (a maximum, a last index
# and a rest need an element) and a nondecreasing bound on its steps at
# size n, cheap at any n (max_naive's stops growing past the budget)
_Op = collections.namedtuple("_Op", "entry counted worst_case smallest steps")
_OPS: Dict[str, _Op] = {
    "u_plus": _Op(unary.plus, (unary.plus,), lambda n: (unary.from_int(n), unary.from_int(n)),
                  0, lambda n: n + 1),
    "u_add": _Op(unary.add, (unary.add,), lambda n: (unary.from_int(n), unary.from_int(n)),
                 0, lambda n: n + 1),
    "sumlist": _Op(listlab.sumlist, (listlab.sumlist,), lambda n: (range(n),), 0, lambda n: n + 1),
    "sumlist2": _Op(listlab.sumlist2, (listlab.sumlist2, listlab.sumh), lambda n: (range(n),),
                    0, lambda n: n + 2),
    "filter_keep": _Op(listlab.filter_keep, (listlab.filter_keep,),
                       lambda n: ((lambda v: v % 2 == 0), range(n)), 0, lambda n: n + 1),
    "max_naive": _Op(listlab.max_naive, (listlab.max_naive,), lambda n: (range(1, n + 1),),
                     1, lambda n: (1 << min(n, 64)) - 1),
    "max_fast": _Op(listlab.max_fast, (listlab.max_fast,), lambda n: (range(1, n + 1),),
                    1, lambda n: n),
    "b_add1": _Op(binary.add1, (binary.add1,), lambda n: (binary.from_int((1 << n) - 1),),
                  0, lambda n: n + 1),
    "b_add_v1": _Op(binary.add_v1, (binary.add_v1, binary.add1), _all_ones(binary),
                    0, lambda n: 2 * n + 1),
    "b_add_v2": _Op(binary.add_v2, (binary.add_v2, binary.add_plus1), _all_ones(binary),
                    0, lambda n: n + 1),
    "b_mult": _Op(binary.mult, (binary.mult, binary.add_v2, binary.add_plus1), _all_ones(binary),
                  0, lambda n: (n + 1) ** 2),
    "i_add": _Op(twoscomp.add, (twoscomp.add, twoscomp.add_plus1), _all_ones(twoscomp),
                 0, lambda n: n + 1),
    "bs_access": _Op(braun.access, (braun.access,), lambda n: (braun.replicate(n, 0), n - 1),
                     1, lambda n: n.bit_length() + 1),
    "bs_cons": _Op(braun.cons, (braun._push,), lambda n: ("x", braun.replicate(n, 0)),
                   0, lambda n: n.bit_length() + 1),
    "bs_rest": _Op(braun.rest, (braun._untop,), lambda n: (braun.replicate(n, 0),),
                   1, lambda n: n.bit_length() + 1),
}

STEP_BUDGET = 1 << 20  # the most steps a schedule's sizes may predict

METERED: Dict[str, Callable[..., Any]] = {op_id: row.entry for op_id, row in _OPS.items()}
_twins = threading.local()  # per thread: op id -> (entry, steps)
_building = threading.Lock()  # ast.parse and compile() of an AST can fail in two threads at once


class SourceUnavailable(RuntimeError):
    """The meter cannot read the source of a counted module to build its twins."""


def _twin(op_id: str) -> Tuple[Callable[..., Any], List[int]]:
    """The operation's entry in its twins' namespace, and their step counter."""
    cache = vars(_twins)
    if op_id not in cache:  # read the module once and build all its ops
        from . import _clauses  # only a process that measures pays for it, and for ast
        module = _OPS[op_id].entry.__globals__
        rows = {op: row for op, row in _OPS.items() if row.entry.__globals__ is module}
        names = {fn.__name__ for row in rows.values() for fn in row.counted}
        with _building:
            found = _clauses.twins(_clauses.read(module), _OPS[op_id].entry.__code__.co_filename, names)
        for op, (entry, counted, *_) in rows.items():
            keys = [(fn.__code__.co_firstlineno, fn.__name__) for fn in counted]
            if not all(key in found for key in keys):
                raise SourceUnavailable(
                    f"cannot meter {op_id!r}: the source of {entry.__module__} is not available")
            namespace = dict(module, _steps=[0])
            for key in keys:
                exec(found[key], namespace)
            if entry not in counted:
                namespace[entry.__name__] = types.FunctionType(entry.__code__, namespace)
            cache[op] = namespace[entry.__name__], namespace["_steps"]
    return cache[op_id]


def measured(op_id: str, *args: Any) -> Tuple[Any, int]:
    """Run the operation's twins and count its steps; return (result, steps)."""
    if op_id not in METERED:
        raise KeyError(f"unknown operation id: {_shown(repr(op_id))}")
    entry, steps = _twin(op_id)
    steps[0] = 0
    with deep_recursion():
        result = entry(*args)
    return result, steps[0]


def _check_size(op_id: str, n: int) -> None:
    if op_id not in METERED:
        raise KeyError(f"unknown operation id: {_shown(repr(op_id))}")
    if n < 0:
        raise ValueError(f"{op_id} has no worst-case input of negative size {_number(n)}")
    if n < _OPS[op_id].smallest:
        raise ValueError(f"{op_id} has no worst-case input of size {n}")


def worst_case_args(op_id: str, n: int) -> Tuple[Any, ...]:
    """Canonical worst-case input of size n for an operation id.

    Raises KeyError for an unknown op id, and ValueError for a negative
    size and for size 0 of an op whose input needs an element.
    """
    _check_size(op_id, n)
    return _OPS[op_id].worst_case(n)


def check_schedule(op_id: str, sizes: Sequence[int]) -> None:
    """Refuse a size schedule that the meter would not measure whole.

    Raises ValueError for an empty schedule, for a size that
    :func:`worst_case_args` refuses, with its message, and for a size
    whose step bound is over :data:`STEP_BUDGET`; KeyError for an
    unknown op id.
    """
    if not sizes:
        raise ValueError("empty size schedule")
    _check_size(op_id, min(sizes))
    high = max(sizes)  # the step bounds never decrease
    if _OPS[op_id].steps(high) > STEP_BUDGET:
        raise ValueError(f"{op_id} at size {_number(high)} is over the meter's budget of {STEP_BUDGET} steps")


def measure_schedule(op_id: str, sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """(size, steps) samples over a size schedule, worst-case inputs.

    The schedule is refused whole, as :func:`check_schedule` says, before
    any size is measured.
    """
    check_schedule(op_id, sizes)
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
        raise ValueError(f"unknown bound form: {_shown(repr(bound))}")
    return CostReport(op_id, tuple(samples), bound, k, passed, worst)

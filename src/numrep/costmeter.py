"""Step counts for the recursive operations, taken from their own definitions.

The one entry point is :func:`count`: ``count(entry, counted, *args)``
runs ``entry(*args)`` and returns its result and its steps, each entry
into one of the functions in ``counted`` counting as one, recursive
entries and base clauses included.  It runs twins: copies compiled from
their own source with ``_steps[0] += 1`` first in the body that repeats
(the function's own, or that of its top-level ``while`` or ``for`` if it
descends in a loop), in a copy of the module's namespace, so that their
calls and an uncounted entry's (``braun.cons``) reach the twins.  A twin
adds no frame, and the plain functions pay nothing for the meter.  The
private module ``numrep._clauses`` reads a module's source through its
loader, and each thread parses a module once, on its first count, and
compiles the twins of all its top-level defs; the twins see the
module's globals as they were when the thread first metered the
module, so a test that patches a module meters in a fresh thread.  A
module that runs again, as ``importlib.reload`` runs it, is read again
once a counted function is not the one the thread saw under its name.
Modules are told apart by their namespace, not their name.  A thread
keeps the twins it builds for an entry that its module names; an entry
made anew on each call, such as a closure, gets new twins each time,
from the same parse.  From one parse, the same module also derives
each counted function's clause table (its returns and raises, the type
tests that select each, and the counted calls it makes), which
``tests/clause_table.txt`` pins; the meter does not build the tables,
and no parse tree outlives a build.

:func:`count` raises :class:`SourceUnavailable`, a ``RuntimeError``
naming the function, for one it cannot meter: an entry or a counted
function that is not a function written in Python (``len``), a counted
function of another module than the entry's, a counted function that is
no top-level def of its module's source (a nested function, a lambda, a
method), and one whose module's source cannot be read, or does not
parse, as a module shipped only as bytecode does not.  An entry that is
not counted may be any function of the module, nested or not.

:func:`measured` meters an operation by its op id: it looks up the op's
entry and counted functions and returns ``count(entry, counted,
*args)``, with the functions counted for each op listed below.  Helper
bodies count toward their caller's total (add_v1 includes its
increments, add_v2 its carry helper, mult its additions); smart
constructors such as ``even`` and ``odd`` are not steps.  Without the source, it raises
:class:`SourceUnavailable` naming the op id and its module, and an
unknown op id raises KeyError naming it, as ``METERED[op_id]`` does.

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

:data:`METERED` maps each op id to its plain entry function, a
read-only ``Mapping`` over the op ids (``binary``'s on-first-use table,
as ``numio.KINDS`` is).  Each op id has one row in ``_MAKE``, plain
data that names no function object: the op's layer, the names there of
its entry and of its counted functions, its smallest size, a bound on
its steps at size n, and its worst-case input of size n, built from the
layer's module as ``worst_case(layer, n)``.  ``_build`` imports an op's
layer on the op's first use, resolves the row's names there once and
keeps them in ``_BUILT``, which :func:`measured`,
:func:`worst_case_args`, :func:`measure_schedule` and :data:`METERED`
all read: naming, listing or testing the op ids imports no layer, and
neither does refusing a schedule, so this module itself imports only
:mod:`numrep.binary`.

Sizes mean, per operation: the denoted value for the unary ops, the list
length for the list ops, the digit count of an all-ones operand for the
binary and signed ops (the worst carry chains, one operand passed
twice), and the sequence length for the Braun ops (which access their
last index).  The smallest size is 1 where the input needs an element,
else 0.  Before anything is measured, :func:`check_schedule` refuses a
schedule with a size that is not an integer (by ``operator.index``, a
TypeError naming the op id and the size, the same for every op id),
with a size below the smallest, or with one whose bound is over
``STEP_BUDGET`` = 2^20 steps: ``max_naive`` (2^n - 1 steps) is
measured up to size 20, ``b_mult`` (at most (n + 1)^2 steps) up to
1023, and the linear ops up to about a million, though past 50,000
frames the recursion limit stops them.

The list ops' worst-case inputs are ascending ``range`` objects, whose
slices cost O(1) where a list's copy the rest, so ``xs[1:]`` does not
make a run O(n^2) in time and memory; the steps are the lists' exactly.
:func:`measured` runs a list op's list or tuple argument as a zero-copy
suffix view of it, whose ``[k:]`` is another view, so a list op's
metered memory is linear in the length of any input, with the plain
list's result and steps.  :func:`count` passes its arguments as they
are: a learner's list recursion metered through it still keeps a copy
of the rest in each pending frame, memory quadratic in its depth.
Likewise the Braun ops' inputs are n copies of one element built by
:func:`braun.replicate` in O(log n) shared nodes, not n nodes: a Braun
tree's shape, and so each step count, depends on its size alone.  Six
op ids' steps depend on the size alone, so that every input of a size is
a worst case: ``sumlist``, ``sumlist2``, ``filter_keep`` (whatever its
predicate keeps) and ``max_fast`` on every list of one length, and
``bs_cons`` and ``bs_rest`` on every sequence of one length.

A measurement runs inside :class:`deep_recursion`, which raises the
recursion limit to at least 50,000 frames.
"""

from __future__ import annotations

import collections
import importlib
import operator
import sys
import threading
import types
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .binary import Record, _number, _OnFirstUse, _shown


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

    A class rather than a generator context manager: :func:`count`
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


def _all_ones(m: types.ModuleType, n: int) -> Tuple[Any, Any]:
    """Two operands of n one-digits each, the full carry chain: one value,
    built once and passed twice."""
    return (m.from_int((1 << n) - 1),) * 2


# op id -> its row, as plain data: its layer's name; the names, in that
# layer, of the plain entry function and of the functions whose entries are
# its steps; its smallest size (a maximum, a last index and a rest need an
# element); a nondecreasing bound on its steps at size n, cheap at any n
# (max_naive's stops growing past the budget); and its worst-case input of
# size n, built from the layer's module (the maxima's lists ascend, so their
# guard always fails)
_Row = collections.namedtuple("_Row", "layer entry counted smallest steps worst_case")
_MAKE: Dict[str, _Row] = {
    "u_plus": _Row("unary", "plus", ("plus",), 0, lambda n: n + 1, lambda m, n: (m.from_int(n), m.from_int(n))),
    "u_add": _Row("unary", "add", ("add",), 0, lambda n: n + 1, lambda m, n: (m.from_int(n), m.from_int(n))),
    "sumlist": _Row("listlab", "sumlist", ("sumlist",), 0, lambda n: n + 1, lambda m, n: (range(n),)),
    "sumlist2": _Row("listlab", "sumlist2", ("sumlist2", "sumh"), 0, lambda n: n + 2, lambda m, n: (range(n),)),
    "filter_keep": _Row("listlab", "filter_keep", ("filter_keep",), 0, lambda n: n + 1,
                        lambda m, n: ((lambda v: v % 2 == 0), range(n))),
    "max_naive": _Row("listlab", "max_naive", ("max_naive",), 1, lambda n: (1 << min(n, 64)) - 1,
                      lambda m, n: (range(1, n + 1),)),
    "max_fast": _Row("listlab", "max_fast", ("max_fast",), 1, lambda n: n, lambda m, n: (range(1, n + 1),)),
    "b_add1": _Row("binary", "add1", ("add1",), 0, lambda n: n + 1, lambda m, n: (m.from_int((1 << n) - 1),)),
    "b_add_v1": _Row("binary", "add_v1", ("add_v1", "add1"), 0, lambda n: 2 * n + 1, _all_ones),
    "b_add_v2": _Row("binary", "add_v2", ("add_v2", "add_plus1"), 0, lambda n: n + 1, _all_ones),
    "b_mult": _Row("binary", "mult", ("mult", "add_v2", "add_plus1"), 0, lambda n: (n + 1) ** 2, _all_ones),
    "i_add": _Row("twoscomp", "add", ("add", "add_plus1"), 0, lambda n: n + 1, _all_ones),
    "bs_access": _Row("braun", "access", ("access",), 1, lambda n: n.bit_length() + 1,
                      lambda m, n: (m.replicate(n, 0), n - 1)),
    "bs_cons": _Row("braun", "cons", ("_push",), 0, lambda n: n.bit_length() + 1,
                    lambda m, n: ("x", m.replicate(n, 0))),
    "bs_rest": _Row("braun", "rest", ("_untop",), 1, lambda n: n.bit_length() + 1, lambda m, n: (m.replicate(n, 0),)),
}
# each op id used so far -> its layer's module, its entry function and its
# counted functions; two threads may both build one, and keep the first
_BUILT: Dict[str, Tuple[types.ModuleType, Callable[..., Any], Tuple[Callable[..., Any], ...]]] = {}


def _build(op_id: str) -> Tuple[types.ModuleType, Callable[..., Any], Tuple[Callable[..., Any], ...]]:
    """op_id's entry in _BUILT, made on first use: import its layer and
    resolve its row's names there; KeyError naming an unknown op id."""
    if op_id not in _BUILT:
        row = _MAKE[_known(op_id)]
        layer = importlib.import_module(f"{__package__}.{row.layer}")
        _BUILT.setdefault(op_id, (layer, getattr(layer, row.entry), tuple(getattr(layer, f) for f in row.counted)))
    return _BUILT[op_id]


STEP_BUDGET = 1 << 20  # the most steps a schedule's sizes may predict

METERED: Mapping = _OnFirstUse(_MAKE, lambda op_id: _build(op_id)[1])  # op id -> its plain entry function
# per thread: (entry, counted) -> (the entry run against the twins, their
# step counter); id(a module's namespace) -> (that namespace, a copy of it,
# the twin of each of its top-level defs by (line, name)).  Keeping the
# namespace keeps its id from being reused.
_twins = threading.local()
_building = threading.Lock()  # ast.parse and compile() of an AST can fail in two threads at once


class SourceUnavailable(RuntimeError):
    """The meter cannot build the twin of a function from its module's source."""


def _twin(entry: Callable[..., Any], counted: Tuple[Callable, ...]) -> Tuple[Callable[..., Any], List[int]]:
    """entry as it runs against new twins of counted, and their step counter,
    kept for this thread unless entry is made anew on each call; each
    module is read and parsed once per thread."""
    for fn in (entry, *counted):
        if not isinstance(fn, types.FunctionType):
            raise SourceUnavailable(f"cannot meter {_shown(repr(fn))}: not a function defined in Python")
        if fn.__globals__ is not entry.__globals__:
            raise SourceUnavailable(f"cannot meter {fn.__qualname__}: not a function of {entry.__module__}")
    cache, module = vars(_twins), entry.__globals__
    # read and parse the module once, and compile all its defs; again if it ran again (a reload)
    if id(module) not in cache or any(cache[id(module)][1].get(fn.__name__) is not fn for fn in counted):
        from . import _clauses  # only a process that measures pays for it, and for ast
        with _building:
            found = _clauses.twins(_clauses.read(module), entry.__code__.co_filename)
        cache[id(module)] = module, dict(module), found
    _, globals_then, found = cache[id(module)]
    namespace = dict(globals_then, _steps=[0])
    for fn in counted:
        twin = found.get((fn.__code__.co_firstlineno, fn.__name__))
        if twin is None:
            raise SourceUnavailable(f"cannot meter {fn.__qualname__}: " + (
                f"not a top-level def in the source of {entry.__module__}" if found
                else f"the source of {entry.__module__} is not available"))
        exec(twin, namespace)
    run = namespace[entry.__name__] if entry in counted else types.FunctionType(
        entry.__code__, namespace, entry.__name__, entry.__defaults__, entry.__closure__)
    run.__kwdefaults__ = entry.__kwdefaults__
    if module.get(entry.__name__) is entry:  # kept only for an entry its module names, not one made per call
        cache[entry, counted] = run, namespace["_steps"]
    return run, namespace["_steps"]


def count(entry: Callable[..., Any], counted: Sequence[Callable[..., Any]], *args: Any) -> Tuple[Any, int]:
    """Run entry(*args) against twins of the functions in counted, and count
    each entry into one of them as a step; return (result, steps).

    Raises :class:`SourceUnavailable`, naming the function, for a function
    it cannot meter, as the module docstring lists them.
    """
    key = entry, tuple(counted)
    run, steps = vars(_twins).get(key) or _twin(*key)
    steps[0] = 0
    with deep_recursion():
        result = run(*args)
    return result, steps[0]


def _known(op_id: str) -> str:
    """op_id, if it is an op id; else KeyError naming it."""
    if op_id not in _MAKE:
        raise KeyError(f"unknown operation id: {_shown(repr(op_id))}")
    return op_id


class _Suffix:
    """A list or tuple from index ``start`` on, without a copy: its ``[k:]``
    is another view, O(1) as a range's slice is, so a list op's pending
    frames hold no copies of the rest.  It has a length, and so a truth
    value, and integer indexing, negative included."""

    __slots__ = ("_items", "_start")

    def __init__(self, items: Sequence[Any], start: int = 0) -> None:
        self._items, self._start = items, start

    def __len__(self) -> int:
        return len(self._items) - self._start

    def __getitem__(self, k: Any) -> Any:
        if type(k) is slice:
            if k.stop is not None or k.step is not None:
                raise TypeError("a suffix view slices only as [k:]")
            return _Suffix(self._items, self._start + k.indices(len(self))[0])
        if k < 0:
            k += len(self)
            if k < 0:
                raise IndexError("index out of range")
        return self._items[self._start + k]


_LIST_OPS = frozenset(op_id for op_id, row in _MAKE.items() if row.layer == "listlab")


def measured(op_id: str, *args: Any) -> Tuple[Any, int]:
    """Run the operation's twins and count its steps; return (result, steps).

    A list op's list or tuple argument runs as a :class:`_Suffix` view of
    itself, so that its metered memory is linear in its length."""
    # the plain dict first: a sweep measures once per sample
    _, entry, counted = _BUILT.get(op_id) or _build(op_id)
    if op_id in _LIST_OPS:
        args = tuple(_Suffix(a) if type(a) is list or type(a) is tuple else a for a in args)
    try:
        return count(entry, counted, *args)
    except SourceUnavailable as exc:
        raise SourceUnavailable(
            f"cannot meter {op_id!r}: the source of {entry.__module__} is not available") from exc


def _check_size(op_id: str, sizes: Sequence[int]) -> None:
    """Refuse, before op_id's layer loads, a size that is not an integer,
    then a least size that is negative or below op_id's smallest; KeyError
    for an unknown op id."""
    smallest = _MAKE[_known(op_id)].smallest
    for n in sizes:
        try:
            operator.index(n)
        except TypeError:
            raise TypeError(f"{op_id} size is not an integer: {_shown(repr(n))}") from None
    n = min(sizes)
    if n < 0:
        raise ValueError(f"{op_id} has no worst-case input of negative size {_number(n)}")
    if n < smallest:
        raise ValueError(f"{op_id} has no worst-case input of size {n}")


def worst_case_args(op_id: str, n: int) -> Tuple[Any, ...]:
    """Canonical worst-case input of size n for an operation id.

    Raises KeyError for an unknown op id, TypeError for a size that is
    not an integer (one ``operator.index`` refuses), and ValueError for a
    negative size and for size 0 of an op whose input needs an element.
    """
    _check_size(op_id, (n,))
    return _MAKE[op_id].worst_case(_build(op_id)[0], n)


def check_schedule(op_id: str, sizes: Sequence[int]) -> None:
    """Refuse a size schedule that the meter would not measure whole.

    Raises ValueError for an empty schedule, TypeError and ValueError for
    a size that :func:`worst_case_args` refuses, with its message, and
    ValueError for a size whose step bound is over :data:`STEP_BUDGET`;
    KeyError for an unknown op id.  No layer loads.
    """
    if not sizes:
        raise ValueError("empty size schedule")
    _check_size(op_id, sizes)
    high = max(sizes)  # the step bounds never decrease
    if _MAKE[op_id].steps(high) > STEP_BUDGET:
        raise ValueError(f"{op_id} at size {_number(high)} is over the meter's budget of {STEP_BUDGET} steps")


def measure_schedule(op_id: str, sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """(size, steps) samples over a size schedule, worst-case inputs.

    The schedule is refused whole, as :func:`check_schedule` says (a size
    that is not an integer with its TypeError), before any size is
    measured or the op's layer loads.
    """
    check_schedule(op_id, sizes)
    layer, worst_case = _build(op_id)[0], _MAKE[op_id].worst_case
    return [(n, measured(op_id, *worst_case(layer, n))[1]) for n in sorted(set(sizes))]


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
    closed form as a callable and checks equality.  An unknown form, or
    the "exact" form without its closed form, raises ValueError before
    anything is measured.
    """
    if bound == "exact":
        if exact is None:
            raise ValueError("exact bound needs its closed form")
        f = exact
    elif bound in _BOUND_FORMS:
        f = _BOUND_FORMS[bound]
    else:
        raise ValueError(f"unknown bound form: {_shown(repr(bound))}")
    samples = measure_schedule(op_id, sizes)
    if bound == "exact":
        passed = all(steps == f(n) for n, steps in samples)
    else:
        passed = all(steps <= k * f(n) + k for n, steps in samples)
    worst = max(steps / max(f(n), 1) for n, steps in samples)
    return CostReport(op_id, tuple(samples), bound, k, passed, worst)

"""Machine-speed reference that every reported timing is normalised by.

On a shared machine the speed of the interpreter drifts by up to a factor
of two within seconds, and CPU time drifts with wall time, so the drift is
slower execution, not descheduling.  A fixed pure-Python loop much like
the library's own work (allocate small slotted objects, call a function
on each that dispatches with ``match``) is timed next to the measured
work, and each timing
is scaled by ``NOMINAL_NS / reference time``.  A reported time is then
the time the work would take on a machine that runs the loop in
``NOMINAL_NS``: about the median on a 2-core Intel Xeon under Python
3.11.  The loop uses nothing from numrep, so a change to the library
cannot move it.  It keeps its call stack shallow and its objects few:
deep recursion makes CPython map and unmap stack chunks, and the page
faults and TLB flushes that causes would slow the measured work itself.
"""

from __future__ import annotations

from time import perf_counter_ns

NOMINAL_NS = 230_000
CELLS = 100
ROUNDS = 5
TRIES = 3


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _visit(cell):
    match cell:
        case _Cell():
            return cell.head


def loop_ns() -> int:
    """Best of TRIES timings of the reference loop."""
    best = None
    for _ in range(TRIES):
        t0 = perf_counter_ns()
        for _ in range(ROUNDS):
            cell = None
            for i in range(CELLS):
                cell = _Cell(i, cell)
            while cell is not None:
                _visit(cell)
                cell = cell.tail
        ns = perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


def speed_factor() -> float:
    """NOMINAL_NS over the reference loop's time now: above 1 on a fast machine."""
    return NOMINAL_NS / loop_ns()

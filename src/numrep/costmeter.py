"""Step-count instrumentation for the recursive operations.

Each operation id below maps to a metered mirror of the plain function:
the same clauses in the same order, plus one tick at every entry into a
function body (base clauses included).  The mirrors still state their
clauses as ``match`` statements, where the plain functions dispatch on
``type(x) is C`` tests.  The plain functions stay untouched, so they
carry no instrumentation cost; a measurement confines its tally to one
call tree.  Helper bodies count toward their caller's total (add_v1
includes its increments, add_v2 its carry helper, mult its additions).

The Braun operations count node visits instead of body entries:
``bs_access`` ticks once per child descent, so its count equals the
digit count of the index exactly, and ``bs_cons``/``bs_rest`` tick once
per node constructed or inspected along their spine, which stays within
depth + 1.

Benchmark sizes mean, per operation: the denoted value for the unary
ops, the list length for the list ops, the digit count of an all-ones
operand for the binary and signed ops (the worst carry chains), and the
sequence length for the Braun ops (which access their last index).
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import binary, braun, listlab, twoscomp, unary
from .binary import Even, Odd, Zero
from .braun import BraunSeq, Node
from .twoscomp import MinusOne
from .unary import Succ
from .unary import Zero as UZero


# Frozen linear-bound constants for the two addition algorithms: over all
# operand pairs with values <= 512 the worst measured ratio of total body
# entries to (max digit count + 1) is 1.9 for add_v1 (at 257 + 511, 19
# entries against 10) and exactly 1.0 for add_v2.  Rounded up to integers.
K_ADD_V1 = 2
K_ADD_V2 = 1


class Tally:
    """Mutable step counter confined to a single measurement."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1


@contextlib.contextmanager
def deep_recursion(limit: int = 50_000):
    """Temporarily raise the interpreter recursion limit for a measurement."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# metered mirrors (same clauses as the plain functions, one tick per entry)

def _u_plus(t, x, y):
    t.tick()
    match y:
        case UZero():
            return x
        case Succ(p):
            return Succ(_u_plus(t, x, p))
    raise TypeError(f"not a unary natural: {y!r}")


def _u_add(t, x, y):
    t.tick()
    match y:
        case UZero():
            return x
        case Succ(p):
            return _u_add(t, Succ(x), p)
    raise TypeError(f"not a unary natural: {y!r}")


def _sumlist(t, xs):
    t.tick()
    if not xs:
        return 0
    return xs[0] + _sumlist(t, xs[1:])


def _sumh(t, xs, acc):
    t.tick()
    if not xs:
        return acc
    return _sumh(t, xs[1:], xs[0] + acc)


def _sumlist2(t, xs):
    t.tick()
    return _sumh(t, xs, 0)


def _filter_keep(t, p, xs):
    t.tick()
    if not xs:
        return []
    x, rest = xs[0], xs[1:]
    if p(x):
        return [x] + _filter_keep(t, p, rest)
    return _filter_keep(t, p, rest)


def _max_naive(t, xs):
    t.tick()
    if not xs:
        raise ValueError("max of an empty list")
    if len(xs) == 1:
        return xs[0]
    x, rest = xs[0], xs[1:]
    if x > _max_naive(t, rest):
        return x
    return _max_naive(t, rest)


def _max_fast(t, xs):
    t.tick()
    if not xs:
        raise ValueError("max of an empty list")
    if len(xs) == 1:
        return xs[0]
    m = _max_fast(t, xs[1:])
    return xs[0] if xs[0] > m else m


def _b_add1(t, x):
    t.tick()
    match x:
        case Zero():
            return Odd(Zero())
        case Even(a):
            return binary.odd(a)
        case Odd(a):
            return binary.even(_b_add1(t, a))
    raise TypeError(f"not a binary natural: {x!r}")


def _b_add_v1(t, x, y):
    t.tick()
    match (x, y):
        case (_, Zero()):
            return x
        case (Zero(), _):
            return y
        case (Even(a), Even(b)):
            return binary.even(_b_add_v1(t, a, b))
        case (Even(a), Odd(b)):
            return binary.odd(_b_add_v1(t, a, b))
        case (Odd(a), Even(b)):
            return binary.odd(_b_add_v1(t, a, b))
        case (Odd(a), Odd(b)):
            return binary.even(_b_add1(t, _b_add_v1(t, a, b)))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def _b_add_v2(t, x, y):
    t.tick()
    match (x, y):
        case (_, Zero()):
            return x
        case (Zero(), _):
            return y
        case (Even(a), Even(b)):
            return binary.even(_b_add_v2(t, a, b))
        case (Even(a), Odd(b)):
            return binary.odd(_b_add_v2(t, a, b))
        case (Odd(a), Even(b)):
            return binary.odd(_b_add_v2(t, a, b))
        case (Odd(a), Odd(b)):
            return binary.even(_b_add_plus1(t, a, b))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def _b_add_plus1(t, x, y):
    t.tick()
    match (x, y):
        case (Zero(), Zero()):
            return Odd(Zero())
        case (Zero(), Even(b)):
            return binary.odd(b)
        case (Zero(), Odd(b)):
            return binary.even(_b_add_plus1(t, Zero(), b))
        case (Even(a), Zero()):
            return binary.odd(a)
        case (Odd(a), Zero()):
            return binary.even(_b_add_plus1(t, a, Zero()))
        case (Even(a), Even(b)):
            return binary.odd(_b_add_v2(t, a, b))
        case (Even(a), Odd(b)):
            return binary.even(_b_add_plus1(t, a, b))
        case (Odd(a), Even(b)):
            return binary.even(_b_add_plus1(t, a, b))
        case (Odd(a), Odd(b)):
            return binary.odd(_b_add_plus1(t, a, b))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def _b_mult(t, x, y):
    t.tick()
    match y:
        case Zero():
            return Zero()
        case Even(b):
            return binary.even(_b_mult(t, x, b))
        case Odd(b):
            return _b_add_v2(t, x, binary.even(_b_mult(t, x, b)))
    raise TypeError(f"not a binary natural: {y!r}")


def _i_add(t, x, y):
    t.tick()
    match (x, y):
        case (_, Zero()):
            return x
        case (Zero(), _):
            return y
        case (MinusOne(), MinusOne()):
            return Even(MinusOne())
        case (MinusOne(), Even(b)):
            return twoscomp.odd(_i_add(t, MinusOne(), b))
        case (MinusOne(), Odd(b)):
            return twoscomp.even(b)
        case (Even(a), MinusOne()):
            return twoscomp.odd(_i_add(t, a, MinusOne()))
        case (Odd(a), MinusOne()):
            return twoscomp.even(a)
        case (Even(a), Even(b)):
            return twoscomp.even(_i_add(t, a, b))
        case (Even(a), Odd(b)):
            return twoscomp.odd(_i_add(t, a, b))
        case (Odd(a), Even(b)):
            return twoscomp.odd(_i_add(t, a, b))
        case (Odd(a), Odd(b)):
            return twoscomp.even(_i_add_plus1(t, a, b))
    raise TypeError(f"not two's-complement values: {x!r}, {y!r}")


def _i_add_plus1(t, x, y):
    t.tick()
    match (x, y):
        case (_, MinusOne()):
            return x
        case (MinusOne(), _):
            return y
        case (Zero(), Zero()):
            return Odd(Zero())
        case (Zero(), Even(b)):
            return twoscomp.odd(b)
        case (Zero(), Odd(b)):
            return twoscomp.even(_i_add_plus1(t, Zero(), b))
        case (Even(a), Zero()):
            return twoscomp.odd(a)
        case (Odd(a), Zero()):
            return twoscomp.even(_i_add_plus1(t, a, Zero()))
        case (Even(a), Even(b)):
            return twoscomp.odd(_i_add(t, a, b))
        case (Even(a), Odd(b)):
            return twoscomp.even(_i_add_plus1(t, a, b))
        case (Odd(a), Even(b)):
            return twoscomp.even(_i_add_plus1(t, a, b))
        case (Odd(a), Odd(b)):
            return twoscomp.odd(_i_add_plus1(t, a, b))
    raise TypeError(f"not two's-complement values: {x!r}, {y!r}")


def _bs_access(t, s, i):
    if not 0 <= i < s.length:
        raise IndexError(f"index {i} out of range for length {s.length}")
    node = s.tree
    while i:
        t.tick()  # one visit per child descent: equals the digit count of i
        if i & 1:
            node = node.left
            i = (i - 1) >> 1
        else:
            node = node.right
            i = (i - 2) >> 1
    return node.elem


def _bs_cons(t, v, s):
    def push(w, node):
        t.tick()
        if node is None:
            return Node(w, None, None)
        return Node(w, push(node.elem, node.right), node.left)

    return BraunSeq(s.length + 1, push(v, s.tree))


def _bs_rest(t, s):
    if s.length == 0:
        raise ValueError("rest of an empty sequence")

    def untop(node):
        t.tick()
        if node.left is None:
            return node.elem, None
        head, left_rest = untop(node.left)
        return node.elem, Node(head, node.right, left_rest)

    return BraunSeq(s.length - 1, untop(s.tree)[1])


METERED: Dict[str, Callable[..., Any]] = {
    "u_plus": _u_plus,
    "u_add": _u_add,
    "sumlist": _sumlist,
    "sumlist2": _sumlist2,
    "filter_keep": _filter_keep,
    "max_naive": _max_naive,
    "max_fast": _max_fast,
    "b_add1": _b_add1,
    "b_add_v1": _b_add_v1,
    "b_add_v2": _b_add_v2,
    "b_mult": _b_mult,
    "i_add": _i_add,
    "bs_access": _bs_access,
    "bs_cons": _bs_cons,
    "bs_rest": _bs_rest,
}


def measured(op_id: str, *args: Any) -> Tuple[Any, int]:
    """Run the metered mirror of an operation; return (result, steps)."""
    try:
        fn = METERED[op_id]
    except KeyError:
        raise KeyError(f"unknown operation id: {op_id!r}") from None
    tally = Tally()
    with deep_recursion():
        result = fn(tally, *args)
    return result, tally.steps


def worst_case_args(op_id: str, n: int) -> Tuple[Any, ...]:
    """Canonical worst-case input of size n for an operation id."""
    if op_id in ("u_plus", "u_add"):
        return (unary.from_int(n), unary.from_int(n))
    if op_id in ("sumlist", "sumlist2"):
        return (list(range(n)),)
    if op_id == "filter_keep":
        return ((lambda v: v % 2 == 0), list(range(n)))
    if op_id in ("max_naive", "max_fast"):
        return (list(range(1, n + 1)),)  # ascending: the guard always fails
    if op_id == "b_add1":
        return (binary.from_int((1 << n) - 1),)  # n one-digits: full carry chain
    if op_id in ("b_add_v1", "b_add_v2", "b_mult"):
        return (binary.from_int((1 << n) - 1), binary.from_int((1 << n) - 1))
    if op_id == "i_add":
        return (twoscomp.from_int((1 << n) - 1), twoscomp.from_int((1 << n) - 1))
    if op_id == "bs_access":
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


@dataclass(frozen=True)
class CostReport:
    """Outcome of checking measured step counts against a bound form."""

    op_id: str
    samples: Tuple[Tuple[int, int], ...]  # (size, steps), sizes increasing
    bound: str
    k: int
    passed: bool
    worst_ratio: float


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

"""Runnable property suites behind the ``check`` CLI subcommand.

Each check compares library operations against an independent oracle
(machine integers, plain Python lists) or verifies a structural
invariant, and returns a failure detail or None.  Randomized checks
draw from a seeded generator so runs are reproducible.  Pair sweeps take
their pairs from :func:`_pairs`.  A check yields its cases as rows to
one reader per kind of property: values go through :func:`_oracle`,
exact step counts through :func:`_costs`, two computations that must
build the same structure through :func:`_identical`, and canonicality
and the Braun shape through :func:`_not_canonical`.  Each reader names
a failure by its operation and operands, as in ``add_v2(37,41) != 78``,
``add_v1(37,41) != add_v2(37,41)`` or ``b_add1(0) took 2 steps,
expected 1``.  Five checks keep code of their own, each for a property
no row holds: ``_b_add_cost_bound`` reads one schedule per op through
:func:`costmeter.check_bound`, ``_t_render_injective`` and
``_br_index_bijection`` read a whole set, ``_br_deque_cost`` an upper
bound and ``_br_persistence`` one comparison after a run of steps.
Each check is stated once, where it is defined: :func:`_check` registers
it in :data:`SUITES` under its suite and printed name, so suites and
checks run in source order, and the module-level name is bound to the
registered check, which runs as ``check(rng)``.  The body gets its
suite's layer as its second argument, imported when the check runs:
this module imports only :mod:`numrep.binary` and :mod:`numrep.costmeter`,
which load no other layer, so naming the suites loads none and running
one loads its own.  :func:`run_suite` refuses any other suite name, an
unhashable one such as a list too, with the KeyError that names it.
"""

from __future__ import annotations

import functools
import importlib
import random
from typing import Callable, Dict, List, Optional, Tuple

from . import binary, costmeter
from .binary import CanonicalityError, Record, _shown

DEFAULT_SEED = 12345

CheckFn = Callable[[random.Random], Optional[str]]

# suite -> its (printed name, check) pairs, in source order, filled by _check
SUITES: Dict[str, List[Tuple[str, CheckFn]]] = {}


def _check(suite: str, name: str) -> Callable[[Callable[..., Optional[str]]], CheckFn]:
    """Register the decorated fn(rng, layer) as the check name of suite: the
    check runs as check(rng), calling fn with numrep.<suite> imported then."""
    def register(fn: Callable[..., Optional[str]]) -> CheckFn:
        @functools.wraps(fn)
        def check(rng: random.Random) -> Optional[str]:
            return fn(rng, importlib.import_module(f"{__package__}.{suite}"))

        SUITES.setdefault(suite, []).append((name, check))
        return check
    return register


class CheckResult(Record):
    """Outcome of one property check; detail says why it failed."""

    __slots__ = ("suite", "name", "passed", "detail")


def _pairs(rng, convert, grid: range, lo: int, hi: int, extra: int):
    """(a, b, x, y) with x, y the numerals convert gives for a, b: every pair
    in the grid, then extra random pairs in lo..hi.  Each value in lo..hi,
    which holds the grid, is converted once, into a table the generator frees."""
    table = {v: convert(v) for v in range(lo, hi + 1)}
    for a in grid:
        for b in grid:
            yield a, b, table[a], table[b]
    for _ in range(extra):
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        yield a, b, table[a], table[b]


def _named(name, operands) -> str:
    return f"{name}({','.join(map(str, operands))})"


def _oracle(read, rows):
    """The first row (name, operands, result, expected) whose result read
    gives another value, or refuses as not canonical, named with its operands."""
    for name, operands, result, want in rows:
        try:
            if read(result) == want:
                continue
            wrong = f"!= {want}"
        except CanonicalityError:
            wrong = "is not canonical"
        return f"{_named(name, operands)} {wrong}"
    return None


def _costs(rows):
    """The first row (op_id, operands, args, expected steps) whose op takes
    another number of steps on args under the meter, named with its operands."""
    for op, operands, args, want in rows:
        _, steps = costmeter.measured(op, *args)
        if steps != want:
            return f"{_named(op, operands)} took {steps} steps, expected {want}"
    return None


def _same(value):
    """The reader of results that are plain Python values: int() would read
    a mutant's 3.5 as 3, or its "3" as 3."""
    return value


def _identical(rows):
    """The first row (wording, operands, left, right) whose two structures
    differ under type-exact ==, named by wording with its operands filled in."""
    for wording, operands, left, right in rows:
        if left != right:
            return wording.format(*operands)
    return None


def _not_canonical(is_canonical, rows, broken="is not canonical"):
    """The first row (name, operands, result) whose result is_canonical
    refuses, named with its operands and what is broken."""
    for name, operands, result in rows:
        if not is_canonical(result):
            return f"{_named(name, operands)} {broken}"
    return None


# ---------------------------------------------------------------------------
# unary

@_check("unary", "int roundtrip 0..2000")
def _u_roundtrip(rng, unary):
    return _oracle(unary.to_int, (("from_int", (n,), unary.from_int(n), n) for n in range(2001)))


@_check("unary", "plus/add agree with machine addition (0..60)")
def _u_oracle(rng, unary):
    # to_int is type-exact: it reads a + b only from exactly a + b Succ over
    # a Zero, so two results that both read a + b are the same structure
    return _oracle(unary.to_int, (
        (name, (a, b), op(x, y), a + b)
        for a, b, x, y in _pairs(rng, unary.from_int, range(61), 0, 60, 0)
        for name, op in (("plus", unary.plus), ("add", unary.add))))


@_check("unary", "plus commutative and associative (0..25)")
def _u_laws(rng, unary):
    plus = unary.plus
    swapped = (("plus({0},{1}) != plus({1},{0})", (a, b), plus(x, y), plus(y, x))
               for a, b, x, y in _pairs(rng, unary.from_int, range(26), 0, 25, 0))
    triples = ([rng.randint(0, 25) for _ in range(3)] for _ in range(300))
    return _identical(swapped) or _identical(
        ("plus(plus({0},{1}),{2}) != plus({0},plus({1},{2}))", abc, plus(plus(x, y), z), plus(x, plus(y, z)))
        for abc in triples for x, y, z in (map(unary.from_int, abc),))


@_check("unary", "accumulative add has left identity (0..100)")
def _u_left_identity(rng, unary):
    # a value check is a structure check, as in _u_oracle
    return _oracle(unary.to_int, (
        ("add", (0, n), unary.add(unary.Zero(), unary.from_int(n)), n) for n in range(101)))


@_check("unary", "plus/add step counts equal second argument + 1")
def _u_step_counts(rng, unary):
    return _costs(
        (op, (a, b), (x, y), b + 1)
        for a, b, x, y in _pairs(rng, unary.from_int, range(0), 0, 40, 60) for op in ("u_plus", "u_add"))


# ---------------------------------------------------------------------------
# listlab

@_check("listlab", "accumulating sum equals offset plus structural sum")
def _l_accumulator(rng, listlab):
    return _oracle(_same, (
        ("sumh", (xs, acc), listlab.sumh(xs, acc), acc + sum(xs))
        for xs in ([rng.randint(-100, 100) for _ in range(rng.randint(0, 50))] for _ in range(500))
        for acc in (rng.randint(-100, 100),)))


@_check("listlab", "sumlist2 equals sumlist")
def _l_sum_variants(rng, listlab):
    return _oracle(_same, (
        (name, (xs,), op(xs), sum(xs))
        for xs in ([rng.randint(-100, 100) for _ in range(rng.randint(0, 50))] for _ in range(200))
        for name, op in (("sumlist", listlab.sumlist), ("sumlist2", listlab.sumlist2))))


@_check("listlab", "both maxima agree with the builtin maximum")
def _l_max_agreement(rng, listlab):
    return _oracle(_same, (
        (name, (xs,), op(xs), max(xs))
        for xs in ([rng.randint(-50, 50) for _ in range(rng.randint(1, 12))] for _ in range(80))
        for name, op in (("max_naive", listlab.max_naive), ("max_fast", listlab.max_fast))))


@_check("listlab", "step counts: linear sums/filter, exponential naive max")
def _l_step_counts(rng, listlab):
    def even(v):
        return v % 2 == 0

    linear = (row for n in (10, 100) for row in (
        ("sumlist", (f"range({n})",), (list(range(n)),), n + 1),
        ("filter_keep", ("even", f"range({n})"), (even, list(range(n))), n + 1)))
    return _costs(linear) or _costs(
        (op, (f"range(1, {n + 1})",), (list(range(1, n + 1)),), want)
        for n in (8, 10) for op, want in (("max_naive", 2 ** n - 1), ("max_fast", n)))


# ---------------------------------------------------------------------------
# binary

@_check("binary", "small values have the expected digit shapes")
def _b_shapes(rng, binary):
    Z, E, O = binary.Zero, binary.Even, binary.Odd
    shapes = {0: Z(), 1: O(Z()), 2: E(O(Z())), 3: O(O(Z())), 4: E(E(O(Z()))), 5: O(E(O(Z())))}
    v = binary.from_int(1024)
    return (_identical(("from_int({0}) != {1!r}", (n, want), binary.from_int(n), want) for n, want in shapes.items())
            or _oracle(binary.to_int, [*(("to_int", (want,), want, n) for n, want in shapes.items()),
                                       ("from_int", (1024,), v, 1024)])
            or _oracle(binary.size, [("size", (1024,), v, 11)]))


@_check("binary", "add agrees with machine addition")
def _b_add_oracle(rng, binary):
    return _oracle(binary.to_int, (
        (name, (a, b), op(x, y), a + b)
        for a, b, x, y in _pairs(rng, binary.from_int, range(97), 0, 512, 400)
        for name, op in (("add_v1", binary.add_v1), ("add_v2", binary.add_v2))))


@_check("binary", "both addition algorithms build identical structures")
def _b_add_structural(rng, binary):
    return _identical(("add_v1({0},{1}) != add_v2({0},{1})", (a, b), binary.add_v1(x, y), binary.add_v2(x, y))
                      for a, b, x, y in _pairs(rng, binary.from_int, range(97), 0, 512, 400))


@_check("binary", "mult agrees with machine multiplication")
def _b_mult_oracle(rng, binary):
    return _oracle(binary.to_int, (
        ("mult", (a, b), binary.mult(x, y), a * b)
        for a, b, x, y in _pairs(rng, binary.from_int, range(49), 0, 128, 200)))


@_check("binary", "arithmetic outputs are canonical")
def _b_canonical(rng, binary):
    # the one-operand op on every value in the pairs' range, then the pair ops
    ones = (("add1", (a,), binary.add1(binary.from_int(a))) for a in range(513))
    return _not_canonical(binary.is_canonical, ones) or _not_canonical(binary.is_canonical, (
        (name, (a, b), op(x, y))
        for a, b, x, y in _pairs(rng, binary.from_int, range(49), 0, 512, 200)
        for name, op in (("add_v1", binary.add_v1), ("add_v2", binary.add_v2), ("mult", binary.mult))))


@_check("binary", "size equals the bit length (1..4096)")
def _b_size_law(rng, binary):
    return _oracle(binary.size, (("size", (n,), binary.from_int(n), n.bit_length()) for n in range(1, 4097)))


@_check("binary", "increment cost equals trailing ones + 1")
def _b_add1_cost(rng, binary):
    # n ends in t ones, so incrementing it takes t + 1 steps
    return _costs(("b_add1", (n,), (binary.from_int(n),), t + 1)
                  for t in range(13) for n in ((1 << t) - 1, ((1 << t) - 1) + (1 << (t + 1))))


@_check("binary", "addition cost within the frozen linear bound")
def _b_add_cost_bound(rng, binary):
    # its own code: check_bound reads a whole schedule per op, not one row
    for op, k in (("b_add_v1", costmeter.K_ADD_V1), ("b_add_v2", costmeter.K_ADD_V2)):
        report = costmeter.check_bound(op, [1, 2, 4, 6, 8, 9], "linear", k=k)
        if not report.passed:
            return f"{op} exceeded {k}*(digits+1): {report.samples}"
    return None


# ---------------------------------------------------------------------------
# twoscomp

@_check("twoscomp", "signed conversions roundtrip (-512..512)")
def _t_roundtrip(rng, twoscomp):
    return _oracle(twoscomp.to_int, (
        ("from_int", (n,), twoscomp.from_int(n), n) for n in range(-512, 513)))


@_check("twoscomp", "add/sub/neg agree with machine arithmetic")
def _t_arith_oracle(rng, twoscomp):
    # neg first: sub(a, b) is add(a, neg(b)), so a wrong neg is named as itself
    negs = (("neg", (a,), twoscomp.neg(twoscomp.from_int(a)), -a) for a in range(-64, 65))
    return _oracle(twoscomp.to_int, negs) or _oracle(twoscomp.to_int, (
        (name, (a, b), op(x, y), want)
        for a, b, x, y in _pairs(rng, twoscomp.from_int, range(-64, 65), -256, 256, 300)
        for name, op, want in (("add", twoscomp.add, a + b), ("sub", twoscomp.sub, a - b))))


@_check("twoscomp", "nonnegative add matches the binary algorithm exactly")
def _t_conservative(rng, twoscomp):
    return _identical(("add({0},{1}) != add_v2({0},{1})", (a, b), twoscomp.add(x, y), binary.add_v2(x, y))
                      for a, b, x, y in _pairs(rng, binary.from_int, range(65), 0, 256, 300))


_BIT_TABLE = {
    3: "...011", 2: "...010", 1: "...01", 0: "...0",
    -1: "...11", -2: "...10", -3: "...101", -4: "...100", -5: "...1011",
}


@_check("twoscomp", "bit strings match the fixed table")
def _t_bit_table(rng, twoscomp):
    return _oracle(twoscomp.render_bits, (
        ("render_bits", (n,), twoscomp.from_int(n), want) for n, want in _BIT_TABLE.items()))


@_check("twoscomp", "bit rendering is injective (-512..512)")
def _t_render_injective(rng, twoscomp):
    # its own code: injectivity is a property of the whole set, not of one row
    seen = {twoscomp.render_bits(twoscomp.from_int(n)) for n in range(-512, 513)}
    if len(seen) != 1025:
        return "bit strings collide on -512..512"
    return None


@_check("twoscomp", "complement involution, add1/sub1 inverses")
def _t_involutions(rng, twoscomp):
    complement, add1, sub1 = twoscomp.complement, twoscomp.add1, twoscomp.sub1
    return _identical(row for n in range(-256, 257) for v in (twoscomp.from_int(n),) for row in (
        ("complement(complement({0})) != {0}", (n,), complement(complement(v)), v),
        ("add1(sub1({0})) != {0}", (n,), add1(sub1(v)), v),
        ("sub1(add1({0})) != {0}", (n,), sub1(add1(v)), v)))


@_check("twoscomp", "arithmetic outputs are canonical")
def _t_canonical(rng, twoscomp):
    # the one-operand ops on every value in the pairs' range, then the pair ops
    values = {a: twoscomp.from_int(a) for a in range(-256, 257)}
    ones = ((name, (a,), op(x)) for a, x in values.items()
            for name, op in (("neg", twoscomp.neg), ("add1", twoscomp.add1),
                             ("sub1", twoscomp.sub1), ("complement", twoscomp.complement)))
    return _not_canonical(twoscomp.is_canonical, ones) or _not_canonical(twoscomp.is_canonical, (
        (name, (a, b), op(x, y))
        for a, b, x, y in _pairs(rng, twoscomp.from_int, range(49), -256, 256, 200)
        for name, op in (("add", twoscomp.add), ("sub", twoscomp.sub))))


# ---------------------------------------------------------------------------
# braun

def _shape_ok(node) -> bool:
    def walk(n) -> Tuple[bool, int]:
        if n is None:
            return True, 0
        lok, lc = walk(n.left)
        rok, rc = walk(n.right)
        return lok and rok and rc <= lc <= rc + 1, lc + rc + 1

    ok, _ = walk(node)
    return ok


def _digit_count(i: int) -> int:
    return (i + 1).bit_length() - 1  # the digits of i's index numeral, as numrep.braun derives


@_check("braun", "shape invariant after every operation")
def _br_shape(rng, braun):
    def rows():
        for length in (0, 1, 2, 3, 5, 10, 50, 200, 500):
            s = braun.from_list([rng.randint(0, 999) for _ in range(length)])
            seq = f"from_list(<length {length}>)"  # a failure names the drawn list by its length
            yield "from_list", (f"<length {length}>",), s.tree
            yield "cons", (7, seq), braun.cons(7, s).tree
            if length:
                yield "rest", (seq,), braun.rest(s).tree
                i = rng.randrange(length)
                yield "update", (seq, i, -1), braun.update(s, i, -1).tree

    return _not_canonical(_shape_ok, rows(), "is not a Braun tree")


@_check("braun", "operations agree with plain list operations")
def _br_list_oracle(rng, braun):
    def rows():
        for length in (0, 1, 2, 3, 7, 20, 100, 300):
            xs = [rng.randint(0, 999) for _ in range(length)]
            s, seq = braun.from_list(xs), f"from_list(<length {length}>)"
            yield "to_list", (seq,), braun.to_list(s), xs
            for i in ([*range(length)] if length <= 40 else rng.sample(range(length), 20)):
                yield "access", (seq, i), braun.access(s, i), xs[i]
                yield "access_cd", (seq, i), braun.access_cd(s, braun.cd_from_int(i)), xs[i]
            t, consed = braun.cons(-7, s), f"cons(-7,{seq})"
            yield "to_list", (consed,), braun.to_list(t), [-7] + xs
            yield "first", (consed,), braun.first(t), -7
            yield "to_list", (f"rest({consed})",), braun.to_list(braun.rest(t)), xs
            if length:
                i = rng.randrange(length)
                updated = braun.to_list(braun.update(s, i, -9))
                yield "to_list", (f"update({seq},{i},-9)",), updated, xs[:i] + [-9] + xs[i + 1:]

    return _oracle(_same, rows())


@_check("braun", "persistence: older versions survive later operations")
def _br_persistence(rng, braun):
    # its own code: one comparison after a run of steps, not a row per step
    xs = [rng.randint(0, 999) for _ in range(200)]
    s = braun.from_list(xs)
    t = s
    for _ in range(50):
        t = braun.update(t, rng.randrange(len(t)), rng.randint(0, 9))
        t = braun.cons(rng.randint(0, 9), t)
        t = braun.rest(braun.rest(t))
    if braun.to_list(s) != xs:
        return "original sequence changed under later operations"
    return None


@_check("braun", "depth equals floor(log2 n) + 1 (1..1024)")
def _br_depth_law(rng, braun):
    def conses():
        s = braun.EMPTY
        for n in range(1, 1025):
            s = braun.cons(n, s)
            yield "depth", (f"cons({n},...)",), s, n.bit_length()

    return _oracle(braun.depth, conses())


@_check("braun", "access visits equal the index digit count")
def _br_access_cost(rng, braun):
    return _costs(("bs_access", (f"from_list(range({length}))", i), (s, i), _digit_count(i))
                  for length in (1, 10, 100, 1000) for s in (braun.from_list(range(length)),)
                  for i in {0, length - 1, rng.randrange(length)})


@_check("braun", "cons/rest visits stay within depth + 1")
def _br_deque_cost(rng, braun):
    # its own code: it reads an upper bound, where _costs reads exact counts
    for length in (0, 1, 5, 33, 200, 1000):
        s = braun.from_list(range(length))
        bound = braun.depth(s) + 1
        _, steps = costmeter.measured("bs_cons", "x", s)
        if steps > bound:
            return f"cons on length {length} visited {steps} > {bound}"
        if length:
            _, steps = costmeter.measured("bs_rest", s)
            if steps > bound:
                return f"rest on length {length} visited {steps} > {bound}"
    return None


@_check("braun", "index numerals biject with machine integers")
def _br_index_bijection(rng, braun):
    values = []

    def grow(ix, depth):
        values.append(braun.cd_to_int(ix))
        if depth == 12:
            return
        grow(braun.IxOdd(ix), depth + 1)
        grow(braun.IxEven(ix), depth + 1)

    grow(braun.IxZero(), 0)
    # its own code: coverage of every digit string is a property of the whole set
    if sorted(values) != list(range(2 ** 13 - 1)):
        return "digit strings of <= 12 digits do not cover 0..8190 uniquely"
    return _oracle(braun.cd_to_int, (("cd_from_int", (n,), braun.cd_from_int(n), n) for n in (0, 1, 2, 5, 997, 8190)))


SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run one suite (or "all"); each check gets a fresh seeded generator.

    A check that raises fails with the exception's type and message as
    detail, except for the meter's :class:`costmeter.SourceUnavailable`,
    which stops the run as it stops ``bench``.  Raises KeyError, naming
    the suite and listing :data:`SUITE_NAMES`, for an unknown suite.
    """
    if suite not in SUITE_NAMES:
        raise KeyError(f"unknown suite: {_shown(repr(suite))}; one of {', '.join(SUITE_NAMES)}")
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        for check_name, fn in SUITES[name]:
            try:
                detail = fn(random.Random(seed))
            except costmeter.SourceUnavailable:
                raise
            except Exception as exc:
                detail = f"{type(exc).__name__}: {_shown(str(exc))!r}"
            results.append(CheckResult(name, check_name, detail is None, detail or ""))
    return results

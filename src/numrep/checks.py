"""Runnable property suites behind the ``check`` CLI subcommand.

Each check compares library operations against an independent oracle
(machine integers, plain Python lists) or verifies a structural
invariant, and returns a failure detail or None.  Randomized checks
draw from a seeded generator so runs are reproducible.  Pair sweeps take
their pairs from :func:`_pairs`; ``to_int`` oracles read results through
:func:`_oracle`, and canonicality checks through :func:`_not_canonical`,
both of which name the operation and its operands.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from . import binary, braun, costmeter, listlab, twoscomp, unary
from .binary import CanonicalityError, Record
from .numio import _shown

DEFAULT_SEED = 12345

CheckFn = Callable[[random.Random], Optional[str]]


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


def _oracle(to_int, rows):
    """The first row (name, operands, result, expected) whose result to_int
    does not read as expected or as canonical, named with its operands."""
    for name, operands, result, want in rows:
        try:
            if to_int(result) == want:
                continue
            wrong = f"!= {want}"
        except CanonicalityError:
            wrong = "is not canonical"
        return f"{_named(name, operands)} {wrong}"
    return None


def _not_canonical(is_canonical, rows):
    """The first row (name, operands, result) whose result is not canonical,
    named with its operands."""
    for name, operands, result in rows:
        if not is_canonical(result):
            return f"{_named(name, operands)} is not canonical"
    return None


# ---------------------------------------------------------------------------
# unary

def _u_roundtrip(rng):
    for n in range(0, 2001):
        if unary.to_int(unary.from_int(n)) != n:
            return f"roundtrip failed at {n}"
    return None


def _u_oracle(rng):
    for a, b, x, y in _pairs(rng, unary.from_int, range(61), 0, 60, 0):
        p, q = unary.plus(x, y), unary.add(x, y)
        if unary.to_int(p) != a + b:
            return f"plus({a},{b}) != {a + b}"
        if unary.to_int(q) != a + b:
            return f"add({a},{b}) != {a + b}"
        if p != q:
            return f"plus and add disagree structurally at ({a},{b})"
    return None


def _u_laws(rng):
    for a, b, x, y in _pairs(rng, unary.from_int, range(26), 0, 25, 0):
        if unary.to_int(unary.plus(x, y)) != unary.to_int(unary.plus(y, x)):
            return f"commutativity failed at ({a},{b})"
    for _ in range(300):
        a, b, c = (rng.randint(0, 25) for _ in range(3))
        x, y, z = (unary.from_int(v) for v in (a, b, c))
        if unary.plus(unary.plus(x, y), z) != unary.plus(x, unary.plus(y, z)):
            return f"associativity failed at ({a},{b},{c})"
    return None


def _u_left_identity(rng):
    for n in range(101):
        y = unary.from_int(n)
        if unary.add(unary.Zero(), y) != y:
            return f"add(0, {n}) != {n}"
    return None


def _u_step_counts(rng):
    for _ in range(60):
        a, b = rng.randint(0, 40), rng.randint(0, 40)
        x, y = unary.from_int(a), unary.from_int(b)
        for op in ("u_plus", "u_add"):
            _, steps = costmeter.measured(op, x, y)
            if steps != b + 1:
                return f"{op}({a},{b}) took {steps} steps, expected {b + 1}"
    return None


# ---------------------------------------------------------------------------
# listlab

def _l_accumulator(rng):
    for _ in range(500):
        xs = [rng.randint(-100, 100) for _ in range(rng.randint(0, 50))]
        acc = rng.randint(-100, 100)
        if listlab.sumh(xs, acc) != acc + sum(xs):
            return f"sumh({xs!r}, {acc}) != {acc + sum(xs)}"
    return None


def _l_sum_variants(rng):
    for _ in range(200):
        xs = [rng.randint(-100, 100) for _ in range(rng.randint(0, 50))]
        if not listlab.sumlist(xs) == listlab.sumlist2(xs) == sum(xs):
            return f"sum variants disagree on {xs!r}"
    return None


def _l_max_agreement(rng):
    for _ in range(80):
        xs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
        if not listlab.max_naive(xs) == listlab.max_fast(xs) == max(xs):
            return f"maxima disagree on {xs!r}"
    return None


def _l_step_counts(rng):
    for n in (10, 100):
        _, steps = costmeter.measured("sumlist", list(range(n)))
        if steps != n + 1:
            return f"sumlist length {n} took {steps} steps, expected {n + 1}"
        _, steps = costmeter.measured("filter_keep", lambda v: v % 2 == 0, list(range(n)))
        if steps != n + 1:
            return f"filter length {n} took {steps} steps, expected {n + 1}"
    for n in (8, 10):
        _, steps = costmeter.measured("max_naive", list(range(1, n + 1)))
        if steps != 2 ** n - 1:
            return f"max_naive length {n} took {steps} steps, expected {2 ** n - 1}"
        _, steps = costmeter.measured("max_fast", list(range(1, n + 1)))
        if steps != n:
            return f"max_fast length {n} took {steps} steps, expected {n}"
    return None


# ---------------------------------------------------------------------------
# binary

def _b_shapes(rng):
    Z, E, O = binary.Zero, binary.Even, binary.Odd
    expected = {0: Z(), 1: O(Z()), 2: E(O(Z())), 3: O(O(Z())), 4: E(E(O(Z()))), 5: O(E(O(Z())))}
    for n, want in expected.items():
        if binary.from_int(n) != want:
            return f"from_int({n}) built {binary.from_int(n)!r}"
        if binary.to_int(want) != n:
            return f"to_int round trip failed at {n}"
    v = binary.from_int(1024)
    if binary.size(v) != 11 or binary.to_int(v) != 1024:
        return "1024 has the wrong representation"
    return None


def _b_add_oracle(rng):
    return _oracle(binary.to_int, (
        (name, (a, b), op(x, y), a + b)
        for a, b, x, y in _pairs(rng, binary.from_int, range(97), 0, 512, 400)
        for name, op in (("add_v1", binary.add_v1), ("add_v2", binary.add_v2))))


def _b_add_structural(rng):
    for a, b, x, y in _pairs(rng, binary.from_int, range(97), 0, 512, 400):
        if binary.add_v1(x, y) != binary.add_v2(x, y):
            return f"addition algorithms disagree structurally at ({a},{b})"
    return None


def _b_mult_oracle(rng):
    return _oracle(binary.to_int, (
        ("mult", (a, b), binary.mult(x, y), a * b)
        for a, b, x, y in _pairs(rng, binary.from_int, range(49), 0, 128, 200)))


def _b_canonical(rng):
    # the one-operand op on every value in the pairs' range, then the pair ops
    ones = (("add1", (a,), binary.add1(binary.from_int(a))) for a in range(513))
    return _not_canonical(binary.is_canonical, ones) or _not_canonical(binary.is_canonical, (
        (name, (a, b), op(x, y))
        for a, b, x, y in _pairs(rng, binary.from_int, range(49), 0, 512, 200)
        for name, op in (("add_v1", binary.add_v1), ("add_v2", binary.add_v2), ("mult", binary.mult))))


def _b_size_law(rng):
    for n in range(1, 4097):
        if binary.size(binary.from_int(n)) != n.bit_length():
            return f"size law failed at {n}"
    return None


def _b_add1_cost(rng):
    for t in range(13):
        for n in ((1 << t) - 1, ((1 << t) - 1) + (1 << (t + 1))):
            _, steps = costmeter.measured("b_add1", binary.from_int(n))
            if steps != t + 1:
                return f"add1 on {n} (trailing ones {t}) took {steps} steps"
    return None


def _b_add_cost_bound(rng):
    for op, k in (("b_add_v1", costmeter.K_ADD_V1), ("b_add_v2", costmeter.K_ADD_V2)):
        report = costmeter.check_bound(op, [1, 2, 4, 6, 8, 9], "linear", k=k)
        if not report.passed:
            return f"{op} exceeded {k}*(digits+1): {report.samples}"
    return None


# ---------------------------------------------------------------------------
# twoscomp

def _t_roundtrip(rng):
    for n in range(-512, 513):
        v = twoscomp.from_int(n)
        if twoscomp.to_int(v) != n or not twoscomp.is_canonical(v):
            return f"roundtrip failed at {n}"
    return None


def _t_arith_oracle(rng):
    # neg first: sub(a, b) is add(a, neg(b)), so a wrong neg is named as itself
    negs = (("neg", (a,), twoscomp.neg(twoscomp.from_int(a)), -a) for a in range(-64, 65))
    return _oracle(twoscomp.to_int, negs) or _oracle(twoscomp.to_int, (
        (name, (a, b), op(x, y), want)
        for a, b, x, y in _pairs(rng, twoscomp.from_int, range(-64, 65), -256, 256, 300)
        for name, op, want in (("add", twoscomp.add, a + b), ("sub", twoscomp.sub, a - b))))


def _t_conservative(rng):
    for a, b, x, y in _pairs(rng, binary.from_int, range(65), 0, 256, 300):
        if twoscomp.add(x, y) != binary.add_v2(x, y):
            return f"signed add deviates from binary add at ({a},{b})"
    return None


_BIT_TABLE = {
    3: "...011", 2: "...010", 1: "...01", 0: "...0",
    -1: "...11", -2: "...10", -3: "...101", -4: "...100", -5: "...1011",
}


def _t_bit_table(rng):
    for n, want in _BIT_TABLE.items():
        got = twoscomp.render_bits(twoscomp.from_int(n))
        if got != want:
            return f"render_bits({n}) = {got!r}, expected {want!r}"
    return None


def _t_render_injective(rng):
    seen = {twoscomp.render_bits(twoscomp.from_int(n)) for n in range(-512, 513)}
    if len(seen) != 1025:
        return "bit strings collide on -512..512"
    return None


def _t_involutions(rng):
    for n in range(-256, 257):
        v = twoscomp.from_int(n)
        if twoscomp.complement(twoscomp.complement(v)) != v:
            return f"complement involution failed at {n}"
        if twoscomp.add1(twoscomp.sub1(v)) != v or twoscomp.sub1(twoscomp.add1(v)) != v:
            return f"add1/sub1 inversion failed at {n}"
    return None


def _t_canonical(rng):
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
    count = 0
    while i:
        i = (i - 1) >> 1 if i & 1 else (i - 2) >> 1
        count += 1
    return count


def _br_shape(rng):
    for length in (0, 1, 2, 3, 5, 10, 50, 200, 500):
        xs = [rng.randint(0, 999) for _ in range(length)]
        s = braun.from_list(xs)
        variants = [s, braun.cons(7, s)]
        if length:
            variants.append(braun.rest(s))
            variants.append(braun.update(s, rng.randrange(length), -1))
        for v in variants:
            if not _shape_ok(v.tree):
                return f"shape invariant broken at length {length}"
    return None


def _br_list_oracle(rng):
    for length in (0, 1, 2, 3, 7, 20, 100, 300):
        xs = [rng.randint(0, 999) for _ in range(length)]
        s = braun.from_list(xs)
        if braun.to_list(s) != xs:
            return f"to_list round trip failed at length {length}"
        for i in ([*range(length)] if length <= 40 else rng.sample(range(length), 20)):
            if braun.access(s, i) != xs[i]:
                return f"access({i}) wrong at length {length}"
            if braun.access_cd(s, braun.cd_from_int(i)) != xs[i]:
                return f"access_cd({i}) wrong at length {length}"
        t = braun.cons(-7, s)
        if braun.to_list(t) != [-7] + xs or braun.first(t) != -7:
            return f"cons/first wrong at length {length}"
        if braun.to_list(braun.rest(t)) != xs:
            return f"rest(cons(...)) wrong at length {length}"
        if length:
            i = rng.randrange(length)
            u = braun.update(s, i, -9)
            if braun.to_list(u) != xs[:i] + [-9] + xs[i + 1:]:
                return f"update({i}) wrong at length {length}"
    return None


def _br_persistence(rng):
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


def _br_depth_law(rng):
    s = braun.EMPTY
    for n in range(1, 1025):
        s = braun.cons(n, s)
        if braun.depth(s) != n.bit_length():
            return f"depth at {n} is {braun.depth(s)}, expected {n.bit_length()}"
    return None


def _br_access_cost(rng):
    for length in (1, 10, 100, 1000):
        s = braun.from_list(range(length))
        for i in {0, length - 1, rng.randrange(length)}:
            _, steps = costmeter.measured("bs_access", s, i)
            if steps != _digit_count(i):
                return f"access({i}) visited {steps} nodes, digits {_digit_count(i)}"
    return None


def _br_deque_cost(rng):
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


def _br_index_bijection(rng):
    values = []

    def grow(ix, depth):
        values.append(braun.cd_to_int(ix))
        if depth == 12:
            return
        grow(braun.IxOdd(ix), depth + 1)
        grow(braun.IxEven(ix), depth + 1)

    grow(braun.IxZero(), 0)
    if sorted(values) != list(range(2 ** 13 - 1)):
        return "digit strings of <= 12 digits do not cover 0..8190 uniquely"
    for n in (0, 1, 2, 5, 997, 8190):
        if braun.cd_to_int(braun.cd_from_int(n)) != n:
            return f"index numeral roundtrip failed at {n}"
    return None


# ---------------------------------------------------------------------------

SUITES: Dict[str, List[Tuple[str, CheckFn]]] = {
    "unary": [
        ("int roundtrip 0..2000", _u_roundtrip),
        ("plus/add agree with machine addition (0..60)", _u_oracle),
        ("plus commutative and associative (0..25)", _u_laws),
        ("accumulative add has left identity (0..100)", _u_left_identity),
        ("plus/add step counts equal second argument + 1", _u_step_counts),
    ],
    "listlab": [
        ("accumulating sum equals offset plus structural sum", _l_accumulator),
        ("sumlist2 equals sumlist", _l_sum_variants),
        ("both maxima agree with the builtin maximum", _l_max_agreement),
        ("step counts: linear sums/filter, exponential naive max", _l_step_counts),
    ],
    "binary": [
        ("small values have the expected digit shapes", _b_shapes),
        ("add agrees with machine addition", _b_add_oracle),
        ("both addition algorithms build identical structures", _b_add_structural),
        ("mult agrees with machine multiplication", _b_mult_oracle),
        ("arithmetic outputs are canonical", _b_canonical),
        ("size equals the bit length (1..4096)", _b_size_law),
        ("increment cost equals trailing ones + 1", _b_add1_cost),
        ("addition cost within the frozen linear bound", _b_add_cost_bound),
    ],
    "twoscomp": [
        ("signed conversions roundtrip (-512..512)", _t_roundtrip),
        ("add/sub/neg agree with machine arithmetic", _t_arith_oracle),
        ("nonnegative add matches the binary algorithm exactly", _t_conservative),
        ("bit strings match the fixed table", _t_bit_table),
        ("bit rendering is injective (-512..512)", _t_render_injective),
        ("complement involution, add1/sub1 inverses", _t_involutions),
        ("arithmetic outputs are canonical", _t_canonical),
    ],
    "braun": [
        ("shape invariant after every operation", _br_shape),
        ("operations agree with plain list operations", _br_list_oracle),
        ("persistence: older versions survive later operations", _br_persistence),
        ("depth equals floor(log2 n) + 1 (1..1024)", _br_depth_law),
        ("access visits equal the index digit count", _br_access_cost),
        ("cons/rest visits stay within depth + 1", _br_deque_cost),
        ("index numerals biject with machine integers", _br_index_bijection),
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run one suite (or "all"); each check gets a fresh seeded generator.

    A check that raises fails with the exception's type and message as
    detail, except for the meter's :class:`costmeter.SourceUnavailable`,
    which stops the run as it stops ``bench``.
    """
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

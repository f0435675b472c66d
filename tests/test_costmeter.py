"""The cost meter; the foreign loaders, the first sizes over the budget
and the fresh-thread and fresh-process runners are in ``tests/shared.py``."""

import cProfile
import gc
import importlib.util
import itertools
import json
import operator
import random
import re
import sys
import textwrap
import threading
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrep import _clauses, binary, braun, costmeter, listlab, twoscomp, unary
from shared import FIRST_OVER_BUDGET, NoSource, Sourceless, in_a_fresh_thread, index_digits, run_python


# --- exact closed-form counts -------------------------------------------------

def test_sumlist_steps_length_plus_one():
    result, steps = costmeter.measured("sumlist", list(range(10)))
    assert result == 45
    assert steps == 11


def test_sumlist2_counts_wrapper_and_helper():
    _, steps = costmeter.measured("sumlist2", list(range(10)))
    assert steps == 12  # one wrapper entry plus the helper's 11


def test_filter_steps_length_plus_one():
    for n in (0, 1, 10, 100):
        _, steps = costmeter.measured("filter_keep", lambda v: v % 2 == 0, list(range(n)))
        assert steps == n + 1


def test_max_naive_is_exponential_on_ascending_input():
    result, steps = costmeter.measured("max_naive", list(range(1, 11)))
    assert result == 10
    assert steps == 2 ** 10 - 1


def test_max_naive_twelve():
    _, steps = costmeter.measured("max_naive", list(range(1, 13)))
    assert steps == 2 ** 12 - 1


def test_max_fast_is_linear():
    for n in (1, 5, 10, 100):
        result, steps = costmeter.measured("max_fast", list(range(1, n + 1)))
        assert result == n
        assert steps == n


def test_separation_witness():
    for n in (8, 12, 16):
        xs = list(range(1, n + 1))
        _, naive = costmeter.measured("max_naive", xs)
        _, fast = costmeter.measured("max_fast", xs)
        assert naive == 2 ** n - 1
        assert fast == n


def test_unary_plus_base_case_single_entry():
    x = unary.from_int(5)
    result, steps = costmeter.measured("u_plus", x, unary.Zero())
    assert result == x
    assert steps == 1


@given(st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=40)
def test_unary_step_counts_follow_second_argument(a, b):
    x, y = unary.from_int(a), unary.from_int(b)
    assert costmeter.measured("u_plus", x, y)[1] == b + 1
    assert costmeter.measured("u_add", x, y)[1] == b + 1


def test_add1_carry_chain_cost():
    # t trailing one-digits force exactly t + 1 entries
    for t in range(13):
        all_ones = binary.from_int((1 << t) - 1)
        _, steps = costmeter.measured("b_add1", all_ones)
        assert steps == t + 1
        mixed = binary.from_int(((1 << t) - 1) + (1 << (t + 1)))
        _, steps = costmeter.measured("b_add1", mixed)
        assert steps == t + 1


@given(st.integers(0, 512), st.integers(0, 512))
@settings(max_examples=60, deadline=None)
def test_addition_costs_within_frozen_bounds(a, b):
    x, y = binary.from_int(a), binary.from_int(b)
    bound_base = max(binary.size(x), binary.size(y)) + 1
    _, v1 = costmeter.measured("b_add_v1", x, y)
    _, v2 = costmeter.measured("b_add_v2", x, y)
    assert v1 <= costmeter.K_ADD_V1 * bound_base
    assert v2 <= costmeter.K_ADD_V2 * bound_base


def test_access_visits_equal_digit_count():
    for length in (1, 10, 100, 1000):
        s = braun.from_list(range(length))
        for i in (0, length // 2, length - 1):
            _, steps = costmeter.measured("bs_access", s, i)
            assert steps == len(index_digits(i))


def test_cons_rest_visits_within_depth_plus_one():
    for length in (0, 1, 2, 7, 100, 1000):
        s = braun.from_list(range(length))
        bound = braun.depth(s) + 1
        _, steps = costmeter.measured("bs_cons", "v", s)
        assert steps <= bound
        if length:
            _, steps = costmeter.measured("bs_rest", s)
            assert steps <= bound


# --- transparency and determinism ----------------------------------------------

@given(st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_measured_results_equal_plain_results_binary(a, b):
    x, y = binary.from_int(a), binary.from_int(b)
    assert costmeter.measured("b_add_v1", x, y)[0] == binary.add_v1(x, y)
    assert costmeter.measured("b_add_v2", x, y)[0] == binary.add_v2(x, y)
    assert costmeter.measured("b_mult", x, y)[0] == binary.mult(x, y)
    assert costmeter.measured("b_add1", x)[0] == binary.add1(x)


@given(st.integers(-200, 200), st.integers(-200, 200))
@settings(max_examples=40, deadline=None)
def test_measured_results_equal_plain_results_signed(a, b):
    x, y = twoscomp.from_int(a), twoscomp.from_int(b)
    assert costmeter.measured("i_add", x, y)[0] == twoscomp.add(x, y)


@given(st.lists(st.integers(-50, 50), max_size=60))
@settings(max_examples=40, deadline=None)
def test_measured_results_equal_plain_results_lists(xs):
    assert costmeter.measured("sumlist", xs)[0] == listlab.sumlist(xs)
    assert costmeter.measured("sumlist2", xs)[0] == listlab.sumlist2(xs)
    p = lambda v: v % 2 == 0
    assert costmeter.measured("filter_keep", p, xs)[0] == listlab.filter_keep(p, xs)
    if xs:
        small = xs[:12]
        assert costmeter.measured("max_naive", small)[0] == listlab.max_naive(small)
        assert costmeter.measured("max_fast", xs)[0] == listlab.max_fast(xs)


@given(st.lists(st.integers(), max_size=120))
@settings(max_examples=40)
def test_measured_results_equal_plain_results_braun(xs):
    s = braun.from_list(xs)
    assert costmeter.measured("bs_cons", "v", s)[0] == braun.cons("v", s)
    if xs:
        assert costmeter.measured("bs_rest", s)[0] == braun.rest(s)
        i = len(xs) - 1
        assert costmeter.measured("bs_access", s, i)[0] == braun.access(s, i)


def test_unary_measured_matches_plain():
    x, y = unary.from_int(31), unary.from_int(17)
    assert costmeter.measured("u_plus", x, y)[0] == unary.plus(x, y)
    assert costmeter.measured("u_add", x, y)[0] == unary.add(x, y)


def test_identical_inputs_yield_identical_counts():
    xs = list(range(1, 11))
    first = costmeter.measured("max_naive", xs)
    second = costmeter.measured("max_naive", xs)
    assert first == second


def test_docstring_table_names_each_op_ids_counted_functions():
    header = "    op id        counted functions\n    -----------  " + "-" * 48 + "\n"
    table = costmeter.__doc__.split(header)[1].split("\n\n")[0]
    stated = {}
    for line in table.splitlines():
        op_id, counted = line.split(None, 1)
        stated[op_id] = tuple(counted.split(" (")[0].split(", "))  # a parenthesis only comments
    assert stated == {op_id: tuple(f"{row.layer}.{name}" for name in row.counted)
                      for op_id, row in costmeter._MAKE.items()}


def test_unknown_operation_id():
    with pytest.raises(KeyError):
        costmeter.measured("no_such_op", 1)
    with pytest.raises(KeyError):
        costmeter.worst_case_args("no_such_op", 4)


def shown(value):
    """value's repr as a message quotes it: its first 60 characters at most."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


@pytest.mark.parametrize("op_id", ["no_such_op", "x" * 100_000, []])
@pytest.mark.parametrize("call, args", [
    ("measured", (1,)), ("worst_case_args", (4,)), ("check_schedule", ([4],)),
    ("measure_schedule", ([4],)), ("check_bound", ([4], "linear")), ("METERED.__getitem__", ()),
])
def test_an_unknown_operation_id_is_quoted_at_most_60_characters(op_id, call, args):
    with pytest.raises(KeyError) as caught:
        operator.attrgetter(call)(costmeter)(op_id, *args)
    assert caught.value.args == (f"unknown operation id: {shown(op_id)}",)


@pytest.mark.parametrize("op_id", ["bs_access", "bs_rest", "max_naive", "max_fast"])
def test_no_worst_case_input_of_size_0(op_id):
    with pytest.raises(ValueError, match=f"^{op_id} has no worst-case input of size 0$"):
        costmeter.worst_case_args(op_id, 0)


@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_no_worst_case_input_of_negative_size(op_id):
    message = f"^{op_id} has no worst-case input of negative size -3$"
    with pytest.raises(ValueError, match=message):
        costmeter.worst_case_args(op_id, -3)
    with pytest.raises(ValueError, match=message):
        costmeter.measure_schedule(op_id, [4, -3])


# --- schedules and bound checking ----------------------------------------------

def test_measure_schedule_sorts_and_dedupes():
    samples = costmeter.measure_schedule("sumlist", [100, 10, 10])
    assert samples == [(10, 11), (100, 101)]


def test_measure_schedule_rejects_empty():
    with pytest.raises(ValueError):
        costmeter.measure_schedule("sumlist", [])


def test_check_bound_exact_pass_and_fail():
    report = costmeter.check_bound("filter_keep", [10, 100, 1000], "exact",
                                   exact=lambda n: n + 1)
    assert report.passed
    assert report.samples == ((10, 11), (100, 101), (1000, 1001))
    report = costmeter.check_bound("filter_keep", [10], "exact", exact=lambda n: n)
    assert not report.passed


def test_check_bound_exact_requires_closed_form():
    with pytest.raises(ValueError):
        costmeter.check_bound("filter_keep", [10], "exact")


def test_check_bound_linear_add_variants():
    for op, k in (("b_add_v1", costmeter.K_ADD_V1), ("b_add_v2", costmeter.K_ADD_V2)):
        report = costmeter.check_bound(op, [4, 8, 16, 32], "linear", k=k)
        assert report.passed, report


def test_check_bound_logarithmic_access():
    report = costmeter.check_bound("bs_access", [1, 10, 100, 1000], "logarithmic", k=2)
    assert report.passed
    assert report.bound == "logarithmic"


def test_check_bound_exponential_naive_max():
    report = costmeter.check_bound("max_naive", [4, 8, 10], "exponential", k=1)
    assert report.passed


def test_check_bound_detects_violation():
    # a linear bound with k=1 cannot hold for the exponential function
    report = costmeter.check_bound("max_naive", [8, 10], "linear", k=1)
    assert not report.passed
    assert report.worst_ratio > 1


def test_check_bound_unknown_form():
    with pytest.raises(ValueError):
        costmeter.check_bound("sumlist", [10], "quadratic")


@pytest.mark.parametrize("form", ["quadratic", "q" * 100_000, []])
def test_an_unknown_bound_form_is_quoted_at_most_60_characters(form):
    with pytest.raises(ValueError) as caught:
        costmeter.check_bound("sumlist", [10], form)
    assert caught.value.args == (f"unknown bound form: {shown(form)}",)


@pytest.mark.parametrize("bound, message", [
    ("nope", "unknown bound form: 'nope'"), ("exact", "exact bound needs its closed form"),
])
def test_check_bound_refuses_its_bound_before_measuring(monkeypatch, bound, message):
    def measure_schedule(op_id, sizes):
        raise AssertionError(f"measured {op_id} over {sizes}")

    # unchecked, max_naive at 18 would run 2^18 - 1 steps before the refusal
    monkeypatch.setattr(costmeter, "measure_schedule", measure_schedule)
    with pytest.raises(ValueError) as caught:
        costmeter.check_bound("max_naive", [18], bound)
    assert caught.value.args == (message,)


# --- the benchmark's step ledger ------------------------------------------------

LEDGER = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "data" / "ledger.json").read_text()
)


def test_ledger_covers_every_op_id():
    assert set(LEDGER) == set(costmeter.METERED)


@pytest.mark.parametrize("op_id", sorted(LEDGER))
def test_schedule_matches_the_ledger(op_id):
    want = [tuple(sample) for sample in LEDGER[op_id]]
    assert costmeter.measure_schedule(op_id, [n for n, _ in want]) == want


# --- the step budget ----------------------------------------------------------------

@pytest.mark.parametrize("op_id", sorted(LEDGER))
def test_step_bound_holds_every_ledger_sample_and_small_size(op_id):
    row = costmeter._MAKE[op_id]
    samples = [tuple(sample) for sample in LEDGER[op_id]]
    samples += costmeter.measure_schedule(op_id, range(row.smallest, 13))
    assert all(steps <= row.steps(n) for n, steps in samples), samples


@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_step_bound_never_decreases_and_is_cheap_at_any_size(op_id):
    bound = costmeter._MAKE[op_id].steps
    sizes = [*range(200), 2**20, 2**64, 10**4299]
    values = [bound(n) for n in sizes]
    assert values == sorted(values)


@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_check_schedule_refuses_the_first_size_over_the_budget(op_id):
    row, first = costmeter._MAKE[op_id], FIRST_OVER_BUDGET[op_id]
    assert row.steps(first - 1) <= costmeter.STEP_BUDGET < row.steps(first)
    costmeter.check_schedule(op_id, [first - 1, row.smallest])
    # the Braun ops' first size, past 100 digits, is named by its bit length
    shown = first if first < 10**100 else "of 1048576 bits"
    with pytest.raises(ValueError, match=f"^{op_id} at size {shown} is over the meter's budget of 1048576 steps$"):
        costmeter.check_schedule(op_id, [first, row.smallest])


@pytest.mark.parametrize("call, message", [
    (lambda: costmeter.check_schedule("u_plus", [10**5000]),
     "u_plus at size of 16610 bits is over the meter's budget of 1048576 steps"),
    (lambda: costmeter.check_schedule("u_plus", [-10**5000, 1]),
     "u_plus has no worst-case input of negative size of 16610 bits"),
    (lambda: costmeter.worst_case_args("sumlist", -10**5000),
     "sumlist has no worst-case input of negative size of 16610 bits"),
], ids=["over-budget", "schedule-negative", "worst-case-negative"])
def test_a_size_past_the_int_str_digit_limit_is_named_by_its_bit_length(call, message):
    # past 4300 digits Python refuses to print the size
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("op_id, sizes", [("b_mult", [4, 1024]), ("max_naive", [4, 21])])
def test_measure_schedule_refuses_before_it_measures(monkeypatch, op_id, sizes):
    calls = []
    monkeypatch.setattr(costmeter, "measured", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        costmeter.measure_schedule(op_id, sizes)
    assert calls == []


@pytest.mark.parametrize("size", [2.5, "3", None, "9" * 100], ids=["float", "text", "none", "long-text"])
@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_a_size_that_is_not_an_integer_is_one_type_error_for_every_op_id(op_id, size):
    # alone and among good sizes, first, last or inside; a text is quoted by its first 60 characters
    message = f"{op_id} size is not an integer: {binary._shown(repr(size))}"
    good = costmeter._MAKE[op_id].smallest
    calls = [lambda: costmeter.worst_case_args(op_id, size)]
    for sizes in ([size], [good, size, 3], [size, good], [3, good, size]):
        calls += [lambda s=sizes: costmeter.check_schedule(op_id, s),
                  lambda s=sizes: costmeter.measure_schedule(op_id, s)]
    for call in calls:
        with pytest.raises(TypeError) as refusal:
            call()
        assert str(refusal.value) == message


def test_refusing_a_size_that_is_not_an_integer_loads_no_layer():
    proc = run_python(
        "from numrep import costmeter as m\n"
        "refused = 0\n"
        "for op_id in m.METERED:\n"
        "    for call in (m.check_schedule, m.measure_schedule):\n"
        "        try:\n"
        "            call(op_id, [1, 2.5, 3])\n"
        "        except TypeError:\n"
        "            refused += 1\n"
        "print(refused, *sorted(k for k in sys.modules if k.startswith('numrep')))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["30", "numrep", "numrep.binary", "numrep.costmeter"]


# --- list-op inputs --------------------------------------------------------------

LIST_OPS = ("sumlist", "sumlist2", "filter_keep", "max_naive", "max_fast")


def plain_list(op_id, n):
    """The list op's worst-case input as a plain list."""
    return list(range(1, n + 1)) if op_id.startswith("max") else list(range(n))


# a maximum has no input of size 0: see test_no_worst_case_input_of_size_0
@pytest.mark.parametrize("op_id, n", [
    (op_id, n) for op_id in LIST_OPS for n in (0, 1, 10, 4096)
    if n or not op_id.startswith("max")
])
def test_list_op_inputs_hold_the_plain_list(op_id, n):
    assert list(costmeter.worst_case_args(op_id, n)[-1]) == plain_list(op_id, n)


@pytest.mark.parametrize("n", [1, 10, 1000])
@pytest.mark.parametrize("op_id", LIST_OPS)
def test_list_op_measures_the_same_on_the_plain_list(op_id, n):
    if op_id == "max_naive":
        n = min(n, 16)  # 2^n - 1 calls
    args = costmeter.worst_case_args(op_id, n)
    plain = args[:-1] + (plain_list(op_id, n),)
    assert costmeter.measured(op_id, *args) == costmeter.measured(op_id, *plain)


@pytest.mark.parametrize("op_id", [op for op in LIST_OPS if op != "max_naive"])  # 2^n - 1 calls
def test_list_op_schedule_does_not_copy_its_input(op_id):
    # a list's xs[1:] in every frame would peak at 16 MB here, and grows as n**2
    # (keep n small: tracemalloc makes this run's time grow as n**2 too)
    tracemalloc.start()
    try:
        costmeter.measure_schedule(op_id, [2000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_list_op_on_a_45000_element_list_measures_in_linear_memory():
    # a copy of xs[1:] in each pending frame would take about 4 * n**2 bytes,
    # 8 GB here: the child's cap turns that into a MemoryError, not a kill.
    # Each gives its range input's result and steps, stated here as the
    # builtins' result and the ledger's closed form: measuring the range
    # inputs too doubles the time, filter_keep's list building being most of it
    proc = run_python(textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from numrep import costmeter
        n = 45_000
        def even(v):
            return v % 2 == 0
        ascending, descending = list(range(n)), list(range(n, 0, -1))  # max_naive: one call a level
        for op_id, args, want in [
                ("sumlist", (ascending,), (sum(ascending), n + 1)),
                ("sumlist2", (ascending,), (sum(ascending), n + 2)),
                ("filter_keep", (even, ascending), (ascending[::2], n + 1)),
                ("max_fast", (ascending,), (n - 1, n)),
                ("max_naive", (descending,), (n, n))]:
            assert costmeter.measured(op_id, *args) == want, op_id
            print(op_id)
    """))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["sumlist", "sumlist2", "filter_keep", "max_fast", "max_naive"]


def item(seq, k):
    try:
        return seq[k]
    except IndexError:
        return IndexError


@pytest.mark.parametrize("items", [[], (7,), list(range(5)), tuple("abcd")])
def test_the_list_ops_suffix_view_reads_as_the_suffix(items):
    for start in range(len(items) + 1):
        view, suffix = costmeter._Suffix(items, start), items[start:]
        assert (len(view), bool(view)) == (len(suffix), bool(suffix))
        for k in range(-len(suffix) - 2, len(suffix) + 2):
            assert item(view, k) == item(suffix, k)
            tail = view[k:]
            assert [item(tail, j) for j in range(len(tail))] == list(suffix[k:])


@pytest.mark.parametrize("op_id", ["bs_access", "bs_cons", "bs_rest"])
def test_braun_op_schedule_builds_no_n_node_tree(op_id):
    # a tree of 2**60 nodes fits in no memory; 2**60 copies of one element
    # take at most 2 * 61 distinct nodes
    n = 2**60
    tracemalloc.start()
    try:
        [(size, steps)] = costmeter.measure_schedule(op_id, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert size == n
    assert steps == len(index_digits(n - 1)) if op_id == "bs_access" else steps <= n.bit_length() + 1


def reached_sequences(n, rng):
    """from_list(range(n)), then each sequence a seeded run of cons, rest and update reaches from it."""
    seqs = [braun.from_list(range(n))]
    for _ in range(16):
        s = seqs[-1]
        move = rng.choice(["cons", "rest", "update"] if s.length else ["cons"])
        if move == "cons":
            seqs.append(braun.cons("c", s))
        elif move == "rest":
            seqs.append(braun.rest(s))
        else:
            seqs.append(braun.update(s, rng.randrange(s.length), "u"))
    return seqs


PREDICATES = [lambda v: v % 2 == 0, lambda v: True, lambda v: False]


@pytest.mark.parametrize("op_id", ["sumlist", "sumlist2", "filter_keep", "max_fast", "bs_cons", "bs_rest"])
def test_steps_depend_on_the_size_alone(op_id):
    # every input of a size takes the steps of the meter's worst-case input of that size
    if op_id.startswith("bs_"):
        rng = random.Random(op_id)
        seqs = [s for n in range(65) for s in reached_sequences(n, rng) if s.length or op_id == "bs_cons"]
        inputs = [(s.length, ("x", s) if op_id == "bs_cons" else (s,)) for s in seqs]
    else:
        lists = [xs for n in range(8) for xs in itertools.product((-1, 0, 1), repeat=n) if xs or op_id != "max_fast"]
        predicates = PREDICATES if op_id == "filter_keep" else [None]
        inputs = [(len(xs), (xs,) if p is None else (p, xs)) for xs in lists for p in predicates]
    sizes = range(costmeter._MAKE[op_id].smallest, max(n for n, _ in inputs) + 1)
    worst = dict(costmeter.measure_schedule(op_id, sizes))
    assert [(n, args) for n, args in inputs if costmeter.measured(op_id, *args)[1] != worst[n]] == []


def signed_digits(v):
    """The digit count of v's two's-complement numeral: 0 is Z and -1 is N, no digit."""
    return (v if v >= 0 else ~v).bit_length()


def unary_pairs():
    nums = [unary.from_int(v) for v in range(64)]
    return ((b, (nums[a], nums[b])) for a in range(64) for b in range(64))


def binary_pairs():
    nums = [binary.from_int(v) for v in range(128)]
    return ((max(a.bit_length(), b.bit_length()), (nums[a], nums[b])) for a in range(128) for b in range(128))


def signed_pairs():
    nums = {v: twoscomp.from_int(v) for v in range(-128, 128)}
    return ((max(signed_digits(a), signed_digits(b)), (x, y)) for a, x in nums.items() for b, y in nums.items())


def every_index():
    return ((length, (s, i)) for length in range(1, 128) for s in (braun.from_list(range(length)),)
            for i in range(length))


# op id -> every input of each size up to a small one, as (size, arguments):
# every unary pair below 64, whose size is the value the op recurses on;
# every operand below 2**7, whose size is the digit count of the longer one;
# every signed pair in -128..127, which holds each numeral of up to 7 digits;
# every ordering of 1..n for n up to 6; every index of every length below 128
EVERY_INPUT = {
    "u_plus": unary_pairs,
    "u_add": unary_pairs,
    "b_add1": lambda: ((a.bit_length(), (binary.from_int(a),)) for a in range(128)),
    "b_add_v1": binary_pairs,
    "b_add_v2": binary_pairs,
    "b_mult": binary_pairs,
    "i_add": signed_pairs,
    "max_naive": lambda: ((n, (xs,)) for n in range(1, 7) for xs in itertools.permutations(range(1, n + 1))),
    "bs_access": every_index,
}


@pytest.mark.parametrize("op_id", EVERY_INPUT)
def test_no_input_takes_more_steps_than_the_worst_case_input_of_its_size(op_id):
    """The most steps of every input of each size are the worst-case input's,
    within the op's step bound.  The sizes are this test's own: the ROADMAP
    (item 11) adds each op's size function to its plain-data ``_MAKE``
    row, next to the row's ``worst_case(layer, n)`` and step bound."""
    most = {}
    for n, args in EVERY_INPUT[op_id]():
        most[n] = max(most.get(n, 0), costmeter.measured(op_id, *args)[1])
    worst = dict(costmeter.measure_schedule(op_id, sorted(most)))
    assert most == worst
    assert [n for n, steps in worst.items() if steps > costmeter._MAKE[op_id].steps(n)] == []


def test_access_counts_each_pass_of_its_loop_at_a_100000_bit_index():
    # the twin counts the for loop's passes far past the ledger's sizes;
    # index 2**100_000 - 1 has 100,000 digits, all IxOdd.  The assertion
    # names no tree: pytest would repr it, rendering all n positions.
    n = 2**100_000
    r = braun.replicate(n, "v")
    got = braun.access(r, n - 1), costmeter.measured("bs_access", r, n - 1)
    assert got == ("v", ("v", 100_000))


# --- profilers, threads and the source ---------------------------------------------

def test_no_hook_left_behind():
    assert sys.getprofile() is None
    costmeter.measured("b_add_v2", binary.from_int(1000), binary.from_int(999))
    assert sys.getprofile() is None
    with pytest.raises(ValueError):
        costmeter.measured("max_naive", [])
    assert sys.getprofile() is None


def test_python_profile_hook_is_restored():
    events = []

    def hook(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_name)

    def after():
        pass

    sys.setprofile(hook)
    try:
        _, steps = costmeter.measured("max_naive", list(range(1, 9)))
        restored = sys.getprofile()
        after()
    finally:
        sys.setprofile(None)
    assert steps == 2 ** 8 - 1
    assert restored is hook
    assert "after" in events
    assert events.count("max_naive") == 2 ** 8 - 1


def test_outer_cprofile_is_enabled_again():
    def after():
        pass

    outer = cProfile.Profile()
    outer.enable()
    try:
        before = sys.getprofile()  # the profiler up to 3.11, None from 3.12 on
        _, steps = costmeter.measured("max_naive", list(range(1, 9)))
        restored = sys.getprofile()
        after()
    finally:
        outer.disable()
    assert steps == 2 ** 8 - 1
    assert restored is before
    calls = {e.code: e.callcount for e in outer.getstats()}
    assert calls.get(after.__code__) == 1
    assert sum(n for code, n in calls.items() if getattr(code, "co_name", None) == "max_naive") == 2 ** 8 - 1


def test_measured_installs_no_profile_hook(monkeypatch):
    def refuse(hook):
        raise AssertionError("measured installed a profile hook")

    monkeypatch.setattr(sys, "setprofile", refuse)
    assert costmeter.measured("max_naive", list(range(1, 9))) == (8, 2 ** 8 - 1)


class ChangedSource:
    def get_data(self, path):
        return b"def add1(x):\n    return x\n"  # not the def the loaded code came from


LOADERS = {"missing": NoSource(), "changed": ChangedSource(), "no-get-data": object(), "sourceless": Sourceless()}


@pytest.mark.parametrize("module, op_id, args, loader", [
    pytest.param(binary, "b_add1", (binary.from_int(7),), loader, id=name)
    for name, loader in LOADERS.items()
] + [
    pytest.param(braun, "bs_access", (braun.from_list("abc"), 2), loader, id=f"bs_access-{name}")
    for name, loader in LOADERS.items()
])
def test_missing_source_is_one_clear_error(monkeypatch, module, op_id, args, loader):
    monkeypatch.setattr(module, "__loader__", loader)
    raised = in_a_fresh_thread(lambda: costmeter.measured(op_id, *args))
    assert (type(raised), str(raised)) == (
        costmeter.SourceUnavailable, f"cannot meter {op_id!r}: the source of {module.__name__} is not available"
    )


def test_each_module_is_parsed_once_per_thread(monkeypatch):
    parsed = []

    def twins(source, filename):
        parsed.append(filename)
        return real(source, filename)

    real = _clauses.twins
    monkeypatch.setattr(_clauses, "twins", twins)
    found = in_a_fresh_thread(lambda: [costmeter.measured(op, *costmeter.worst_case_args(op, 3))[1]
                                       for op in costmeter.METERED])
    assert sorted(parsed) == sorted(m.__file__ for m in (unary, listlab, binary, twoscomp, braun))
    assert found == [costmeter.measured(op, *costmeter.worst_case_args(op, 3))[1] for op in costmeter.METERED]


def test_measurements_in_two_threads_at_once():
    xs = list(range(1, 13))
    x = binary.from_int((1 << 300) - 1)
    start = threading.Barrier(2, timeout=30)
    results = {}

    def run(name, op_id, *args):
        start.wait()
        results[name] = [costmeter.measured(op_id, *args)[1] for _ in range(20)]

    old_limit = sys.getrecursionlimit()
    threads = [threading.Thread(target=run, args=("naive", "max_naive", xs)),
               threading.Thread(target=run, args=("add", "b_add_v2", x, x))]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        final_limit = sys.getrecursionlimit()
    finally:
        sys.setswitchinterval(old_interval)
        # keeps a raised limit from leaking into later tests if this fails
        sys.setrecursionlimit(old_limit)
    assert not any(t.is_alive() for t in threads)
    assert results == {"naive": [2 ** 12 - 1] * 20, "add": [301] * 20}
    assert final_limit == old_limit


class CyclicGarbage:
    def __del__(self):
        sum(range(50))  # Python code in a collection lets another thread run


def test_threads_building_their_twins_at_once():
    # on 3.11, two threads converting ASTs at once could fail with
    # "SystemError: AST constructor recursion depth mismatch"
    errors = []

    def build():
        try:
            for _ in range(500):
                junk = CyclicGarbage()
                junk.cycle = junk
            for op_id in ("b_add1", "i_add", "bs_cons", "sumlist", "u_plus"):
                costmeter.measured(op_id, *costmeter.worst_case_args(op_id, 4))
        except Exception as exc:
            errors.append(exc)

    old_threshold, old_interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(50)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            threads = [threading.Thread(target=build) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
        gc.set_threshold(*old_threshold)
    assert errors == []


def test_threads_making_the_rows_at_once():
    # in a fresh process no row is made yet, so six threads race to import
    # each layer and make its rows; the rows they use must agree
    code = textwrap.dedent("""
        import threading
        import numrep.costmeter as m
        assert not m._BUILT
        sys.setswitchinterval(1e-6)
        found = []
        def run():
            found.append({op: (m.METERED[op], m.measure_schedule(op, [m._MAKE[op].smallest, 3])) for op in m.METERED})
        threads = [threading.Thread(target=run) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        layers = {op: sys.modules[f"numrep.{m._MAKE[op].layer}"] for op in m.METERED}
        want = {op: (getattr(layers[op], m.METERED[op].__name__), m.measure_schedule(op, [m._MAKE[op].smallest, 3]))
                for op in m.METERED}
        print(len(found), all(f == want for f in found))
    """)
    proc = run_python(code)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "6 True\n")


def test_deep_recursion_overlapping_in_two_threads():
    # forced order: A enters, B enters, A exits, B exits
    a_in, b_in, a_out, b_go = (threading.Event() for _ in range(4))

    def a():
        with costmeter.deep_recursion():
            a_in.set()
            b_in.wait(30)
        a_out.set()

    def b():
        a_in.wait(30)
        with costmeter.deep_recursion():
            b_in.set()
            b_go.wait(30)

    original = sys.getrecursionlimit()
    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    try:
        for t in threads:
            t.start()
        assert a_out.wait(30)
        after_a = sys.getrecursionlimit()
        b_go.set()
        for t in threads:
            t.join(timeout=30)
        after_b = sys.getrecursionlimit()
    finally:
        b_go.set()
        sys.setrecursionlimit(original)
    assert not any(t.is_alive() for t in threads)
    assert after_a == max(original, 50_000)
    assert after_b == original


# --- the clause table ---------------------------------------------------------------

COUNTED = {fn for op_id in costmeter._MAKE for fn in costmeter._build(op_id)[2]}
CLAUSE_TABLE = Path(__file__).resolve().parent / "clause_table.txt"


def clause_tables(functions):
    """fn -> its clauses, derived from its module's source; a clause's calls
    are those to the functions of its module named in functions."""
    tables = {}
    for module in {sys.modules[fn.__module__] for fn in functions}:
        own = [fn for fn in functions if fn.__module__ == module.__name__]
        found = _clauses.derive(_clauses.read(vars(module)), module.__file__, {fn.__name__ for fn in own})
        tables.update((fn, found[fn.__code__.co_firstlineno, fn.__name__].clauses) for fn in own)
    return tables


def table_lines(module_name, clauses):
    """One line per clause: module.label, each test that held, the statement,
    each counted call."""
    return [" | ".join([f"{module_name.rpartition('.')[2]}.{c.label}", *(f"if {t}" for t in c.tests),
                        c.statement, *(f"calls {call}" for call in c.calls)]) for c in clauses]


def golden_lines():
    return [line for line in CLAUSE_TABLE.read_text().splitlines() if not line.startswith("#")]


def test_the_clause_table_of_every_counted_function_is_the_golden_one():
    tables = clause_tables(COUNTED)
    in_order = sorted(tables, key=lambda fn: (fn.__module__, fn.__code__.co_firstlineno))
    assert [line for fn in in_order for line in table_lines(fn.__module__, tables[fn])] == golden_lines()
    assert len(COUNTED) == 18 and len(golden_lines()) == 74


# add_v2's four digit clauses, and the same with [Even,Odd] and [Odd,Even]
# merged into one if: the merge builds the same sums at the same step counts
ADD_V2_DIGIT_CLAUSES = """\
    if tx is Even:
        if ty is Even:
            return even(add_v2(x.rest, y.rest))
        if ty is Odd:
            return odd(add_v2(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return odd(add_v2(x.rest, y.rest))
        if ty is Odd:
            return even(add_plus1(x.rest, y.rest))
"""
ADD_V2_MERGED = """\
    if tx is Even and ty is Even:
        return even(add_v2(x.rest, y.rest))
    if tx is Even and ty is Odd or tx is Odd and ty is Even:
        return odd(add_v2(x.rest, y.rest))
    if tx is Odd and ty is Odd:
        return even(add_plus1(x.rest, y.rest))
"""


def test_merging_two_clauses_keeps_the_steps_and_changes_the_table():
    source = _clauses.read(vars(binary)).decode()
    assert source.count(ADD_V2_DIGIT_CLAUSES) == 1
    golden = [line for line in golden_lines() if line.startswith("binary.add_v2[")]
    for text, same in ((source, True), (source.replace(ADD_V2_DIGIT_CLAUSES, ADD_V2_MERGED), False)):
        found = _clauses.derive(text.encode(), binary.__file__, {"add_v2", "add_plus1"})
        (add_v2,) = [derived for (_, name), derived in found.items() if name == "add_v2"]
        assert (table_lines("binary", add_v2.clauses) == golden) is same
        namespace = dict(vars(binary), _steps=[0])
        for derived in found.values():
            exec(derived.twin, namespace)
        for x in NATS:
            for y in NATS:
                namespace["_steps"][0] = 0
                result = namespace["add_v2"](x, y)
                assert (result, namespace["_steps"][0]) == costmeter.measured("b_add_v2", x, y)


def test_no_parse_tree_outlives_a_build():
    # the ast module keeps one instance of each operator and context; a
    # statement, expression or module node would be a tree kept alive
    code = ("import numrep.costmeter as m; "
            "assert 'ast' not in sys.modules and 'numrep._clauses' not in sys.modules; "
            "[m.measured(op, *m.worst_case_args(op, 3)) for op in m.METERED]; "
            "import ast, gc; assert 'numrep._clauses' in sys.modules; gc.collect(); "
            "print(sum(isinstance(o, (ast.mod, ast.stmt, ast.expr)) for o in gc.get_objects()))")
    proc = run_python(code)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")


# --- clause coverage --------------------------------------------------------------

def lines_run(codes, calls):
    """The (code, line) pairs of codes that calls() runs, traced by a tracer
    that follows only frames of codes, with any displaced tracer restored."""
    seen = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code in codes else None

    displaced = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        calls()
    finally:
        sys.settrace(displaced)
    return seen


# per op id, its plain entry's argument tuples over small inputs: binary
# operands 0..16, signed -16..16, unary 0..11, and lists and sequences of
# lengths 0..11 (both orders, so a maximum's comparison goes both ways;
# every index -1..n, so access also runs off either end)
NATS = [binary.from_int(n) for n in range(17)]
INTS = [twoscomp.from_int(n) for n in range(-16, 17)]
UNARY = [unary.from_int(n) for n in range(12)]
LISTS = [list(range(n)) for n in range(12)] + [list(range(n, 0, -1)) for n in range(2, 12)]
SEQS = [braun.from_list(range(n)) for n in range(12)]
COVERAGE_ARGS = {
    "u_plus": [(x, y) for x in UNARY for y in UNARY],
    "u_add": [(x, y) for x in UNARY for y in UNARY],
    "sumlist": [(xs,) for xs in LISTS],
    "sumlist2": [(xs,) for xs in LISTS],
    "filter_keep": [((lambda v: v % 2 == 0), xs) for xs in LISTS],
    "max_naive": [(xs,) for xs in LISTS],
    "max_fast": [(xs,) for xs in LISTS],
    "b_add1": [(x,) for x in NATS],
    "b_add_v1": [(x, y) for x in NATS for y in NATS],
    "b_add_v2": [(x, y) for x in NATS for y in NATS],
    "b_mult": [(x, y) for x in NATS for y in NATS],
    "i_add": [(x, y) for x in INTS for y in INTS],
    "bs_access": [(s, i) for s in SEQS for i in range(-1, s.length + 1)],
    "bs_cons": [("x", s) for s in SEQS],
    "bs_rest": [(s,) for s in SEQS],
}
SMART_CONSTRUCTORS = (binary.even, binary.odd, twoscomp.odd)


def run_every_op_on_small_inputs():
    for op_id, cases in COVERAGE_ARGS.items():
        entry = costmeter.METERED[op_id]
        for args in cases:
            try:
                entry(*args)
            except (IndexError, ValueError):  # an index off a sequence, an empty one's rest or maximum
                pass
    for maximum in (listlab.max_naive, listlab.max_fast):  # only an empty list raises
        with pytest.raises(ValueError):
            maximum([])


def test_small_inputs_fire_every_clause_of_every_counted_function():
    assert set(COVERAGE_ARGS) == set(costmeter.METERED)
    tables = clause_tables(COUNTED | set(SMART_CONSTRUCTORS))
    assert all(tables.values())
    clauses = {(fn.__code__, clause.line) for fn, table in tables.items() for clause in table}
    assert len(clauses) == 79
    missed = clauses - lines_run({code for code, _ in clauses}, run_every_op_on_small_inputs)
    assert not missed, sorted((code.co_name, line) for code, line in missed)


# --- metering a user's module -------------------------------------------------------

STUDENT = """\
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def fib_pair(n):
    \"\"\"(F(n), F(n + 1)).\"\"\"
    if n == 0:
        return 0, 1
    a, b = fib_pair(n - 1)
    return b, a + b


def fib_sum(n, *, start=0):
    total = 0
    for k in range(start, n + 1):
        total += fib(k)
    return total


def fib_later(n):
    return lambda: fib(n)


def outer():
    def go(n):
        return 0 if n == 0 else go(n - 1)
    return go


twice = lambda n: 2 * n
"""


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def import_file(path, name="student"):
    """The module of the file at path, imported as name and left out of sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def student(tmp_path):
    path = tmp_path / "student.py"
    path.write_text(STUDENT)
    return import_file(path)


def test_count_meters_a_users_functions_against_their_closed_forms(student):
    for n in range(21):
        assert costmeter.count(student.fib, [student.fib], n) == (fibonacci(n), 2 * fibonacci(n + 1) - 1)
        assert costmeter.count(student.fib_pair, [student.fib_pair], n) == ((fibonacci(n), fibonacci(n + 1)), n + 1)


def test_count_counts_only_the_counted_functions_an_entry_calls(student):
    result, steps = costmeter.count(student.fib_sum, [student.fib], 12)
    assert result == sum(fibonacci(k) for k in range(13))
    assert steps == sum(2 * fibonacci(k + 1) - 1 for k in range(13))
    assert costmeter.count(student.fib_sum, [], 12) == (result, 0)


def test_an_entry_made_on_each_call_is_metered_and_not_kept(student):
    def run():
        kept = len(vars(costmeter._twins))
        counts = [costmeter.count(student.fib_later(n), [student.fib]) for n in range(12)]
        return counts, len(vars(costmeter._twins)) - kept

    counts, kept = in_a_fresh_thread(run)
    assert counts == [(fibonacci(n), 2 * fibonacci(n + 1) - 1) for n in range(12)]
    assert kept == 1  # the module's parse, not one twin per entry


def test_twins_see_the_globals_of_their_threads_first_count(student, monkeypatch):
    fib_sum, fib_pair = student.fib_sum, student.fib_pair

    def run():
        before = costmeter.count(fib_sum, [fib_sum], 5)  # one step per pass of its loop
        monkeypatch.setattr(student, "range", lambda start, stop: (), raising=False)
        return before, costmeter.count(fib_sum, [fib_sum, fib_pair], 5)  # new twins, from the first globals

    assert in_a_fresh_thread(run) == ((12, 6), (12, 6))
    assert in_a_fresh_thread(lambda: costmeter.count(fib_sum, [fib_sum], 5)) == (0, 0)


def test_a_module_run_again_from_changed_source_is_read_again(tmp_path):
    path = tmp_path / "student.py"
    path.write_text(STUDENT)
    student = import_file(path)

    def calls(n):
        return 1 if n < 3 else 1 + calls(n - 1) + calls(n - 2)

    def run():
        first = costmeter.count(student.fib, [student.fib], 10)
        # the same lines, a new base clause; the size changes, so no cached bytecode is used
        path.write_text(STUDENT.replace("if n < 2:", "if n < 3:") + "\n")
        student.__loader__.exec_module(student)  # as importlib.reload does
        return first, costmeter.count(student.fib, [student.fib], 10)

    assert in_a_fresh_thread(run) == ((55, 177), (89, calls(10)))


def test_the_clause_table_of_a_users_function(student):
    found = _clauses.derive(_clauses.read(vars(student)), student.__file__, {"fib"})
    assert table_lines(student.__name__, found[1, "fib"].clauses) == [
        "student.fib[_] | if n < 2 | return n",
        "student.fib[_] | return fib(n - 1) + fib(n - 2) | calls fib(n - 1) | calls fib(n - 2)",
    ]


def test_two_modules_of_one_name_get_their_own_twins(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "student.py").write_text(STUDENT)
    (tmp_path / "b" / "student.py").write_text("def fib(n, a=0, b=1):\n    return a if n == 0 else fib(n - 1, b, a + b)\n")
    naive, linear = import_file(tmp_path / "a" / "student.py"), import_file(tmp_path / "b" / "student.py")
    assert naive.__name__ == linear.__name__ and naive.fib.__code__.co_firstlineno == linear.fib.__code__.co_firstlineno

    def both():
        return [costmeter.count(m.fib, [m.fib], 10) for m in (naive, linear, naive)]

    assert in_a_fresh_thread(both) == [(55, 177), (55, 11), (55, 177)]


def test_count_refuses_a_function_of_another_module_even_of_the_same_text(student, tmp_path):
    # its (line, name) is a def of the entry's module too, whose twin it is not
    (tmp_path / "other.py").write_text(STUDENT)
    other = import_file(tmp_path / "other.py", "other")
    raised = in_a_fresh_thread(lambda: costmeter.count(student.fib_sum, [other.fib], 3))
    assert (type(raised), str(raised)) == (costmeter.SourceUnavailable, "cannot meter fib: not a function of student")


@pytest.mark.parametrize("refused, entry, counted", [
    ("outer.<locals>.go", lambda s: s.fib, lambda s: [s.outer()]),
    ("<lambda>", lambda s: s.fib, lambda s: [s.twice]),
    ("<built-in function len>", lambda s: len, lambda s: [len]),
    ("<built-in function len>", lambda s: s.fib_sum, lambda s: [s.fib, len]),
    ("fib", lambda s: s.fib, lambda s: [s.fib]),
], ids=["nested", "lambda", "builtin", "builtin-counted", "no-source"])
def test_count_refuses_what_it_cannot_meter_naming_it(student, refused, entry, counted):
    if refused == "fib":  # the same functions, run in a module that has no loader or file
        student = types.ModuleType("student")
        exec(STUDENT, vars(student))
    entry, counted = entry(student), counted(student)
    raised = in_a_fresh_thread(lambda: costmeter.count(entry, counted, 3))
    assert type(raised) is costmeter.SourceUnavailable
    assert str(raised).startswith(f"cannot meter {refused}: ")

import cProfile
import gc
import json
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrep import binary, braun, costmeter, listlab, twoscomp, unary


def digit_count(i):
    # independent oracle for the number of index digits
    count = 0
    while i:
        i = (i - 1) // 2 if i % 2 else (i - 2) // 2
        count += 1
    return count


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
            assert steps == digit_count(i)


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
        names = counted.split(" (")[0].split(", ")  # a parenthesis only comments
        stated[op_id] = tuple(getattr(globals()[module], fn) for module, fn in (n.split(".") for n in names))
    assert stated == {op_id: row[1] for op_id, row in costmeter._OPS.items()}


def test_unknown_operation_id():
    with pytest.raises(KeyError):
        costmeter.measured("no_such_op", 1)
    with pytest.raises(KeyError):
        costmeter.worst_case_args("no_such_op", 4)


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
    row = costmeter._OPS[op_id]
    samples = [tuple(sample) for sample in LEDGER[op_id]]
    samples += costmeter.measure_schedule(op_id, range(row.smallest, 13))
    assert all(steps <= row.steps(n) for n, steps in samples), samples


@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_step_bound_never_decreases_and_is_cheap_at_any_size(op_id):
    bound = costmeter._OPS[op_id].steps
    sizes = [*range(200), 2**20, 2**64, 10**4299]
    values = [bound(n) for n in sizes]
    assert values == sorted(values)


# each op's first size whose step bound is over the budget of 2^20 steps
FIRST_OVER_BUDGET = {
    "u_plus": 1048576, "u_add": 1048576, "sumlist": 1048576, "sumlist2": 1048575,
    "filter_keep": 1048576, "max_naive": 21, "max_fast": 1048577, "b_add1": 1048576,
    "b_add_v1": 524288, "b_add_v2": 1048576, "b_mult": 1024, "i_add": 1048576,
    "bs_access": 2**1048575, "bs_cons": 2**1048575, "bs_rest": 2**1048575,
}


@pytest.mark.parametrize("op_id", sorted(costmeter.METERED))
def test_check_schedule_refuses_the_first_size_over_the_budget(op_id):
    row, first = costmeter._OPS[op_id], FIRST_OVER_BUDGET[op_id]
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
    assert steps == digit_count(n - 1) if op_id == "bs_access" else steps <= n.bit_length() + 1


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


class NoSource:
    def get_data(self, path):
        raise FileNotFoundError(path)


class ChangedSource:
    def get_data(self, path):
        return b"def add1(x):\n    return x\n"  # not the def the loaded code came from


LOADERS = {"missing": NoSource(), "changed": ChangedSource(), "no-get-data": object()}


@pytest.mark.parametrize("module, op_id, args, loader", [
    pytest.param(binary, "b_add1", (binary.from_int(7),), loader, id=name)
    for name, loader in LOADERS.items()
] + [
    pytest.param(braun, "bs_access", (braun.from_list("abc"), 2), loader, id=f"bs_access-{name}")
    for name, loader in LOADERS.items()
])
def test_missing_source_is_one_clear_error(monkeypatch, module, op_id, args, loader):
    monkeypatch.setattr(module, "__loader__", loader)
    raised = []

    def measure():  # a fresh thread has built no twins yet
        try:
            costmeter.measured(op_id, *args)
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert [(type(exc), str(exc)) for exc in raised] == [
        (costmeter.SourceUnavailable, f"cannot meter {op_id!r}: the source of {module.__name__} is not available")
    ]


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

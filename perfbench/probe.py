"""Layer probe of a traced run: fixed-size costs for each numrep layer.

The probe runs after the workload's traced blocks, untraced, with the
same inputs in every workload.  It reports ns per unit of work at fixed
sizes for each layer, the metering overhead of every ``costmeter`` op id
against its plain twin, the recursion ceilings at the interpreter's
default limit, and the CLI process times.  Each timing is the median of
``REPS`` samples of at least half a millisecond each, every sample
scaled by the reference loop's speed factor (see ``reference.py``).
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from record import Record
from reference import speed_factor
from spawn import Cli, spawn_bare

REPS = 7
SAMPLE_NS = 500_000
DIGITS = 256
MULT_DIGITS = 64
UNARY_N = 300
LIST_N = 512
NAIVE_N = 14
BRAUN_N = 1 << 14
BRAUN_OPS = 256
CEILING_CAP = 1 << 16

# size of the worst-case input each op id is timed on
TWIN_SIZES = {
    "u_plus": 256, "u_add": 256, "sumlist": 256, "sumlist2": 256,
    "filter_keep": 256, "max_naive": 12, "max_fast": 256, "b_add1": 256,
    "b_add_v1": 256, "b_add_v2": 256, "b_mult": 32, "i_add": 256,
    "bs_access": 1 << 12, "bs_cons": 1 << 12, "bs_rest": 1 << 12,
}


def time_ns(fn, *args) -> float:
    """Median ns of one call, over REPS samples of repeated calls."""
    t0 = perf_counter_ns()
    fn(*args)
    inner = max(1, SAMPLE_NS // max(1, perf_counter_ns() - t0))
    samples = []
    for _ in range(REPS):
        factor = speed_factor()
        t0 = perf_counter_ns()
        for _ in range(inner):
            fn(*args)
        samples.append((perf_counter_ns() - t0) / inner * factor)
    return statistics.median(samples)


def plain_twins(lib):
    """The plain public function behind each metered op id."""
    u, b, t, br, ll = lib.unary, lib.binary, lib.twoscomp, lib.braun, lib.listlab
    return {
        "u_plus": u.plus, "u_add": u.add, "sumlist": ll.sumlist,
        "sumlist2": ll.sumlist2, "filter_keep": ll.filter_keep,
        "max_naive": ll.max_naive, "max_fast": ll.max_fast, "b_add1": b.add1,
        "b_add_v1": b.add_v1, "b_add_v2": b.add_v2, "b_mult": b.mult,
        "i_add": t.add, "bs_access": br.access, "bs_cons": br.cons, "bs_rest": br.rest,
    }


def _canonical(lib, value):
    if isinstance(value, lib.braun.BraunSeq):
        return lib.braun.to_list(value)
    try:
        return lib.numio.print_numeral(value)
    except TypeError:  # ints and lists compare as they are
        return value


def _digits(rng, n, signed=False):
    v = (1 << (n - 1)) | rng.getrandbits(n - 1)
    return -v if signed else v


def layer_table(lib, rng):
    b, t, u, io, br, ll = lib.binary, lib.twoscomp, lib.unary, lib.numio, lib.braun, lib.listlab
    m = {}
    x, y = b.from_int(_digits(rng, DIGITS)), b.from_int(_digits(rng, DIGITS))
    text = io.print_numeral(x)
    m["numio.parse_ns_per_char"] = time_ns(io.parse_numeral, text, "binary") / len(text)
    m["numio.print_ns_per_digit"] = time_ns(io.print_numeral, x) / DIGITS
    m["binary.add_v1_ns_per_digit"] = time_ns(b.add_v1, x, y) / DIGITS
    m["binary.add_v2_ns_per_digit"] = time_ns(b.add_v2, x, y) / DIGITS
    xm, ym = b.from_int(_digits(rng, MULT_DIGITS)), b.from_int(_digits(rng, MULT_DIGITS))
    m["binary.mult_ns_per_digit2"] = time_ns(b.mult, xm, ym) / MULT_DIGITS ** 2
    xs, ys = t.from_int(_digits(rng, DIGITS, signed=True)), t.from_int(_digits(rng, DIGITS))
    m["twoscomp.add_ns_per_digit"] = time_ns(t.add, xs, ys) / DIGITS
    m["twoscomp.sub_ns_per_digit"] = time_ns(t.sub, xs, ys) / DIGITS
    m["twoscomp.neg_ns_per_digit"] = time_ns(t.neg, xs) / DIGITS
    un = u.from_int(UNARY_N)
    m["unary.plus_ns_per_succ"] = time_ns(u.plus, un, un) / UNARY_N
    m["unary.add_ns_per_succ"] = time_ns(u.add, un, un) / UNARY_N

    items = list(range(BRAUN_N))
    s = br.from_list(items)
    idx = [rng.randrange(BRAUN_N) for _ in range(BRAUN_OPS)]
    m["braun.access_ns"] = time_ns(lambda: [br.access(s, i) for i in idx]) / BRAUN_OPS
    m["braun.first_ns"] = time_ns(lambda: [br.first(s) for _ in idx]) / BRAUN_OPS
    m["braun.update_ns"] = time_ns(lambda: [br.update(s, i, -1) for i in idx]) / BRAUN_OPS
    m["braun.cons_ns"] = time_ns(lambda: [br.cons(i, s) for i in idx]) / BRAUN_OPS
    m["braun.rest_ns"] = time_ns(lambda: [br.rest(s) for _ in idx]) / BRAUN_OPS
    m["braun.from_list_ns_per_elem"] = time_ns(br.from_list, items) / BRAUN_N
    m["braun.to_list_ns_per_elem"] = time_ns(br.to_list, s) / BRAUN_N

    xs_list = list(range(LIST_N))
    m["listlab.sumlist_ns_per_elem"] = time_ns(ll.sumlist, xs_list) / LIST_N
    m["listlab.filter_keep_ns_per_elem"] = time_ns(ll.filter_keep, lambda v: v % 2 == 0, xs_list) / LIST_N
    m["listlab.max_fast_ns_per_elem"] = time_ns(ll.max_fast, xs_list) / LIST_N
    m["listlab.max_naive_ns_per_call"] = time_ns(ll.max_naive, list(range(1, NAIVE_N + 1))) / (2 ** NAIVE_N - 1)
    return m


def metering_overhead(lib, rec):
    """ns per step of each metered op and its time over the plain twin's."""
    cm = lib.costmeter
    m = {}
    for op_id, plain in plain_twins(lib).items():
        args = cm.worst_case_args(op_id, TWIN_SIZES[op_id])
        result, steps = cm.measured(op_id, *args)
        metered = time_ns(cm.measured, op_id, *args)
        with cm.deep_recursion():
            twin = plain(*args)
            bare = time_ns(plain, *args)
        rec.check(_canonical(lib, result) == _canonical(lib, twin),
                  f"metered {op_id} and its plain twin disagree")
        m[f"costmeter.ns_per_step.{op_id}"] = metered / steps
        m[f"costmeter.overhead_x.{op_id}"] = metered / bare
    return m


def ceiling(trial) -> int:
    """Largest n <= CEILING_CAP for which trial(n) raises no RecursionError.

    Doubling finds a bracket, bisection closes it.  The recursion limit
    is never raised.
    """
    def completes(n):
        try:
            trial(n)
        except RecursionError:
            return False
        return True

    ok, n = 0, 1
    while n <= CEILING_CAP and completes(n):
        ok, n = n, 2 * n
    if ok == CEILING_CAP:
        return ok
    bad = n
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if completes(mid):
            ok = mid
        else:
            bad = mid
    return ok


def ceilings(lib):
    b, u, ll = lib.binary, lib.unary, lib.listlab

    def ones(n):
        return b.from_int((1 << n) - 1)

    return {
        "binary.ceiling_eq_digits": ceiling(lambda n: ones(n) == ones(n)),
        "binary.ceiling_repr_digits": ceiling(lambda n: repr(ones(n))),
        "binary.ceiling_add1_digits": ceiling(lambda n: b.add1(ones(n))),
        "binary.ceiling_add_v2_digits": ceiling(lambda n: b.add_v2(ones(n), ones(n))),
        "unary.ceiling_hash": ceiling(lambda n: hash(u.from_int(n))),
        "listlab.ceiling_sumlist_len": ceiling(lambda n: ll.sumlist(list(range(n)))),
    }


def cli_times(lib, rec):
    """Bare interpreter start, and numrep import and main time per README line."""
    bare = Record()
    for _ in range(REPS):
        spawn_bare(bare)
    bare.calibrate()
    cli = Cli(lib, 0)
    cli.block(rec)
    return {
        "cli.interp_ms": bare.lat.quantile(0.5) / 1e6,
        "cli.import_ms": statistics.median(cli.child_ms["import_ms"]),
        "cli.main_ms": statistics.median(cli.child_ms["main_ms"]),
    }


def run(lib, seed, rec):
    m = ceilings(lib)
    m.update(layer_table(lib, random.Random(seed)))
    m.update(metering_overhead(lib, rec))
    m.update(cli_times(lib, rec))
    return m

"""numrep benchmark: four seeded closed-loop workloads over the library.

    python3 perfbench/run.py --workload arith --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (one client, closed loop: the next operation starts when the
previous one returns):

    arith  literal in, literal out through numio and the arithmetic layers
    seq    reads and writes on one persistent Braun sequence of 2**17
    meter  the property suites and the metered step-count schedules
    cli    each README command line spawned as a fresh interpreter

An untraced run (``--trace 0``) sets up ``SETUP_REPS`` times, warms up,
then runs whole blocks of operations until ``--seconds`` have passed
(at least ``min_blocks``), and reports the end-to-end metrics:

    ops_per_s    operations per second of timed work
    op_p50_us    median latency of one operation
    op_tail_us   latency at the highest of p99, p95 and p90 with at least
                 10 samples beyond it
    setup_s      median time to import numrep and build the inputs
    peak_rss_mb  peak resident memory (of the children, for cli)

The machine's speed drifts by up to a factor of two within seconds, so
every time is scaled by a reference loop timed between blocks (and
between operations in meter and cli); see ``reference.py``.  The one
exception is the tail of seq: its slowest writes are bound by memory,
not by the speed the loop sees, so that tail is reported as measured.
The report line gives every time as measured as well.

A traced run (``--trace 1``) runs a fixed number of blocks untraced,
then the same number with spans around every call into a layer, then
the layer probe (``probe.py``), and reports the per-layer metrics.
Every operation's output is checked outside its timed span; a failed
operation counts in ``failed`` and makes ``correct`` false.  The last
line of stdout is the result as one JSON object; the line before it,
starting with ``report``, holds the provenance and each metric's
per-run quartiles.  Spans of a traced run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe
from arith import Arith
from meter import Meter
from seq import Seq
from spawn import Cli
from record import Histogram, Record
from reference import speed_factor
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = {w.name: w for w in (Arith, Seq, Meter, Cli)}
SETUP_REPS = 5
UNITS = {"ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us",
         "setup_s": "s", "peak_rss_mb": "MB"}


def import_numrep():
    """A fresh import of numrep from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "numrep" or m.startswith("numrep.")]:
        del sys.modules[name]
    numrep = importlib.import_module("numrep")
    if Path(numrep.__file__).resolve().parent != SRC / "numrep":
        raise ImportError(f"numrep imported from {numrep.__file__}, not from {SRC}")
    return numrep


def set_up(cls, seed):
    """Import numrep and build the workload SETUP_REPS times; keep the last."""
    times, workload = [], None
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()
        factor = speed_factor()
        t0 = perf_counter()
        numrep = import_numrep()
        workload = cls(numrep, seed)
        times.append((perf_counter() - t0) * factor)
    return numrep, workload, times


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summary(q1, median, q3, unit, n):
    return {"unit": unit, "n": n, "q1": q1, "median": median, "q3": q3}


def tail(lat: Histogram):
    """(label, value, samples beyond) at the highest percentile with 10 beyond."""
    n = lat.n
    for p in (99, 95, 90):
        k = math.ceil(p * n / 100) - 1
        if n - 1 - k >= 10:
            return f"p{p}", lat.at_rank(k), n - 1 - k
    return "max", lat.at_rank(n - 1), 0


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_blocks(workload, rec, count=None, seconds=None, tracer=None):
    """Run whole blocks, count of them or until seconds pass; block rates."""
    rates = Histogram()
    start = perf_counter()
    rec.calibrate()
    while (rates.n < count if count is not None else
           perf_counter() - start < seconds or rates.n < workload.min_blocks):
        n, total = rec.lat.n, rec.lat.total
        workload.block(rec, tracer)
        rec.calibrate()
        rates.add((rec.lat.n - n) / ((rec.lat.total - total) / 1e9))
    return rates


def untraced(workload, seconds, rec):
    warm = Record()
    run_blocks(workload, warm, count=workload.warmup_blocks)
    rates = run_blocks(workload, rec, seconds=seconds)
    workload.finish(rec)
    rec.merge_outcomes(warm)
    lat, raw = rec.lat, rec.raw
    label, tail_ns, beyond = tail(raw if workload.raw_tail else lat)
    us = [q / 1e3 for q in lat.quartiles()]
    return {
        "ops_per_s": (lat.n / (lat.total / 1e9),
                      {**summary(*rates.quartiles(), "1/s per block", rates.n),
                       "as_measured": raw.n / (raw.total / 1e9)}),
        "op_p50_us": (us[1], {**summary(*us, "us per op", lat.n),
                              "as_measured": raw.quantile(0.5) / 1e3}),
        "op_tail_us": (tail_ns / 1e3, {"percentile": label, "samples_beyond": beyond, "n": lat.n,
                                       "normalised": not workload.raw_tail,
                                       "as_measured": tail(raw)[1] / 1e3}),
    }


def traced(numrep, workload, seed, rec):
    """Per-layer metrics: blocks untraced, the same number traced, the probe."""
    base = Record()
    run_blocks(workload, base, count=workload.trace_blocks)
    tracer = Tracer()
    run_blocks(workload, rec, count=workload.trace_blocks, tracer=tracer)
    workload.finish(rec)
    rec.merge_outcomes(base)
    # counters of layers this workload may not call at all
    metrics = dict.fromkeys(("checks.failed", "costmeter.steps",
                             *(f"checks.busy_s.{s}" for s in numrep.checks.SUITES)), 0)
    metrics.update(tracer.layer_metrics())
    metrics.update(workload.trace_metrics(tracer))
    metrics["trace.overhead_x"] = rec.lat.total / base.lat.total
    probe_rec = Record()
    metrics.update(probe.run(numrep, seed, probe_rec))
    rec.merge_outcomes(probe_rec)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    return metrics


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(args) -> int:
    before = loadavg()
    sys.path.insert(0, str(SRC))
    try:
        numrep, workload, setup_times = set_up(WORKLOADS[args.workload], args.seed)
    except ImportError as exc:
        print(f"error: cannot import numrep from {SRC}: {exc}", file=sys.stderr)
        return 1
    rec = Record()
    if args.trace:
        metrics = traced(numrep, workload, args.seed, rec)
        units = {}
        details = {}
    else:
        measured = untraced(workload, args.seconds, rec)
        rss_of = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
        measured["setup_s"] = (statistics.median(setup_times),
                               summary(*quartiles(setup_times), "s per set-up", len(setup_times)))
        measured["peak_rss_mb"] = (peak_rss_mb(rss_of), {"unit": "MB", "n": 1})
        metrics = {name: value for name, (value, _) in measured.items()}
        details = {name: detail for name, (_, detail) in measured.items()}
        units = UNITS
    attempted = rec.attempted
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(), "loadavg_before": before, "loadavg_after": loadavg()},
        "source": {"git_commit": git_commit(), "src_sha256": src_digest()},
        "ops": {"attempted": attempted, "failed": rec.failed,
                "fail_ratio": rec.failed / attempted, "failures": rec.details},
        "metrics": details,
    }
    if args.trace:
        report["tracing_overhead_x"] = metrics["trace.overhead_x"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units.get(name, '')}")
    print(f"  {'fail_ratio':40s} {rec.failed / attempted:>14.6g} ({rec.failed}/{attempted})")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": rec.failed == 0, "attempted": attempted, "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, per_layer_unit(name))}
                    for name, value in metrics.items()},
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".busy_s")) or ".busy_s." in name:
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if "ns_per" in name or name.endswith("_ns"):
        return "ns"
    if "overhead_x" in name:
        return "x"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Latency records in fixed memory, and the defaults every workload shares.

Samples go into a histogram of log-spaced buckets 0.1 % wide, so the
benchmark's own memory does not grow with the number of operations and a
faster library does not show up as a larger ``peak_rss_mb``.  Each
sample is kept as measured and scaled by the mean speed factor of the
reference loop timed before and after it (see ``reference.py``).
"""

from __future__ import annotations

import math
from collections import Counter

from reference import speed_factor

_PER_E = 1 / math.log1p(0.001)  # buckets per factor of e


class Histogram:
    def __init__(self) -> None:
        self.counts = Counter()
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.counts[int(math.log(max(value, 1e-9)) * _PER_E)] += 1
        self.n += 1
        self.total += value

    def at_rank(self, k: int) -> float:
        """The k-th smallest value (0-based), as its bucket's midpoint."""
        seen = 0
        for bucket in sorted(self.counts):
            seen += self.counts[bucket]
            if seen > k:
                return math.exp((bucket + 0.5) / _PER_E)
        raise IndexError(k)

    def quantile(self, q: float) -> float:
        return self.at_rank(min(self.n - 1, int(q * self.n)))

    def quartiles(self):
        return [self.quantile(q) for q in (0.25, 0.5, 0.75)]


class Record:
    """Latencies of the attempted operations, and the failures."""

    def __init__(self) -> None:
        self.lat = Histogram()  # ns, normalised
        self.raw = Histogram()  # ns, as measured
        self.attempted = 0
        self.failed = 0
        self.details = []
        self._pending = []
        self._factor = None

    def calibrate(self) -> None:
        """Time the reference loop; scale the samples taken since the last call."""
        factor = speed_factor()
        scale = factor if self._factor is None else (self._factor + factor) / 2
        for ns in self._pending:
            self.lat.add(ns * scale)
            self.raw.add(ns)
        self._pending.clear()
        self._factor = factor

    @property
    def factor(self) -> float:
        """Speed factor of the latest calibration."""
        return self._factor or 1.0

    def add(self, ns: int) -> None:
        self.attempted += 1
        self._pending.append(ns)

    def check(self, ok: bool, detail: str) -> None:
        """Count one checked outcome that has no latency of its own."""
        self.attempted += 1
        if not ok:
            self.fail(detail)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.details) < 5:
            self.details.append(detail)

    def merge_outcomes(self, other: "Record") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.details = (self.details + other.details)[:5]


class Workload:
    """A workload runs whole blocks of operations against one Record.

    ``block(rec, tracer=None)`` runs one block, times each operation,
    checks its output outside the timed span and, given a tracer, wraps
    each call into a layer in a span.  One block is the unit of warm-up,
    of the per-block throughput and of a traced run.
    """

    raw_tail = False  # report the tail as measured, not normalised
    min_blocks = 1
    warmup_blocks = 0
    trace_blocks = 1

    def finish(self, rec: Record) -> None:
        """Checks that need the final state, after the last block."""

    def trace_metrics(self, tracer) -> dict:
        """Per-layer metrics of this workload beyond calls, busy and errors."""
        return {}

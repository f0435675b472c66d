"""seq: one persistent Braun sequence of 2**17 elements.

Set-up builds the sequence with ``braun.from_list``.  Every block of 200
operations holds 140 reads (120 ``access`` at a uniform index, 20
``first``; 7 of the reads go to one of the last 8 older versions) and 60
writes (20 each of ``update``, ``cons`` and ``rest``), shuffled.  ``cons``
and ``rest`` balance, so the length is 2**17 again after every block.

A plain list mirrors the current version outside the timed span and
checks every read.  Older versions are checked through the writes made
since them, each kept with what it overwrote or removed.  At the end
``to_list`` of the final version must equal the list.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter_ns

from record import Workload

LENGTH = 1 << 17
KEEP_VERSIONS = 8
BLOCK = (("access", 114), ("access_old", 6), ("first", 19), ("first_old", 1),
         ("update", 20), ("cons", 20), ("rest", 20))


class Seq(Workload):
    name = "seq"
    raw_tail = True
    warmup_blocks = 300
    trace_blocks = 50

    def __init__(self, numrep, seed: int) -> None:
        self.rng = random.Random(seed)
        self.braun = numrep.braun
        self.oracle = [self.rng.getrandbits(30) for _ in range(LENGTH)]
        self.current = numrep.braun.from_list(self.oracle)
        # older versions, each with the writes made since it: (seq, [entry])
        self.versions = deque(maxlen=KEEP_VERSIONS)
        self.kinds = [kind for kind, count in BLOCK for _ in range(count)]

    def _old_value(self, entries, i):
        """Element i of an older version, found through the later writes."""
        for entry in entries:
            if entry[0] == "update":
                if i == entry[1]:
                    return entry[2]
            elif entry[0] == "cons":
                i += 1
            elif i == 0:  # rest removed this element
                return entry[1]
            else:
                i -= 1
        return self.oracle[i]

    def _write(self, new, entry) -> None:
        for _, entries in self.versions:
            entries.append(entry)
        self.versions.append((self.current, [entry]))
        self.current = new

    def block(self, rec, tracer=None) -> None:
        b = self.braun
        access, first, update, cons, rest = b.access, b.first, b.update, b.cons, b.rest
        if tracer is not None:
            access, first, update, cons, rest = (
                tracer.wrap("braun." + f.__name__, f) for f in (access, first, update, cons, rest))
            run = tracer.root
        rng, oracle = self.rng, self.oracle
        kinds = self.kinds[:]
        rng.shuffle(kinds)
        for kind in kinds:
            n = len(oracle)
            entries = None
            s = self.current
            if kind.endswith("_old") and self.versions:
                s, entries = self.versions[rng.randrange(len(self.versions))]
            try:
                if kind.startswith("access"):
                    i = rng.randrange(s.length)
                    t0 = perf_counter_ns()
                    got = access(s, i) if tracer is None else run(access, s, i)
                    rec.add(perf_counter_ns() - t0)
                    want = oracle[i] if entries is None else self._old_value(entries, i)
                elif kind.startswith("first"):
                    t0 = perf_counter_ns()
                    got = first(s) if tracer is None else run(first, s)
                    rec.add(perf_counter_ns() - t0)
                    want = oracle[0] if entries is None else self._old_value(entries, 0)
                elif kind == "update":
                    i, v = rng.randrange(n), rng.getrandbits(30)
                    t0 = perf_counter_ns()
                    new = update(s, i, v) if tracer is None else run(update, s, i, v)
                    rec.add(perf_counter_ns() - t0)
                    self._write(new, ("update", i, oracle[i]))
                    oracle[i] = v
                    got, want = len(new), n
                elif kind == "cons":
                    v = rng.getrandbits(30)
                    t0 = perf_counter_ns()
                    new = cons(v, s) if tracer is None else run(cons, v, s)
                    rec.add(perf_counter_ns() - t0)
                    self._write(new, ("cons",))
                    oracle.insert(0, v)
                    got, want = len(new), n + 1
                else:
                    t0 = perf_counter_ns()
                    new = rest(s) if tracer is None else run(rest, s)
                    rec.add(perf_counter_ns() - t0)
                    self._write(new, ("rest", oracle.pop(0)))
                    got, want = len(new), n - 1
            except Exception as exc:  # any library error is a failed operation
                rec.add(perf_counter_ns() - t0)
                rec.fail(f"braun {kind} raised {exc!r}")
                continue
            if got != want:
                rec.fail(f"braun {kind}: got {got!r}, expected {want!r}")

    def finish(self, rec) -> None:
        if self.braun.to_list(self.current) != self.oracle:
            rec.fail("to_list of the final version differs from the list oracle")

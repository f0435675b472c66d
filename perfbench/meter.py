"""meter: what ``numrep check --suite all`` and ``numrep bench`` do, in-process.

One block is one pass: each of the 31 property checks in
``checks.SUITES`` is one operation (its generator seeded from the
workload seed), then one ``costmeter.measure_schedule`` over a doubling
worst-case schedule for each of the 15 op ids in ``costmeter.METERED``.
A check must hold; a schedule's ``(n, steps)`` samples must equal the
ledger captured by ``capture.py`` and, where the acceptance suite states
one, the closed form.  ``sumlist`` at 4096 keeps its O(n**2) slice
copies alive, so ``peak_rss_mb`` sees the list-op memory cost.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter_ns

from record import Workload

LEDGER = Path(__file__).resolve().parent / "data" / "ledger.json"


def doubling(lo: int, hi: int):
    sizes = []
    while lo <= hi:
        sizes.append(lo)
        lo *= 2
    return sizes


LINEAR = doubling(8, 4096)
BRAUN = doubling(1 << 4, 1 << 14)
SCHEDULES = {
    "u_plus": LINEAR, "u_add": LINEAR, "sumlist": LINEAR, "sumlist2": LINEAR,
    "filter_keep": LINEAR, "max_naive": doubling(4, 16), "max_fast": LINEAR,
    "b_add1": LINEAR, "b_add_v1": LINEAR, "b_add_v2": LINEAR,
    "b_mult": doubling(8, 128), "i_add": LINEAR,
    "bs_access": BRAUN, "bs_cons": BRAUN, "bs_rest": BRAUN,
}

# closed forms stated by the acceptance suite, on worst-case inputs
CLOSED_FORMS = {
    "u_plus": lambda n: n + 1,
    "b_add_v2": lambda n: n + 1,
    "i_add": lambda n: n + 1,
    "b_add_v1": lambda n: 2 * n + 1,
    "max_naive": lambda n: 2 ** n - 1,
    "max_fast": lambda n: n,
}


def schedule_error(op_id, samples, ledger):
    """Why these samples are wrong, or None."""
    want = [tuple(s) for s in ledger[op_id]]
    if samples != want:
        return f"{op_id} steps {samples} differ from the ledger {want}"
    form = CLOSED_FORMS.get(op_id)
    if form and any(steps != form(n) for n, steps in samples):
        return f"{op_id} steps {samples} break the closed form"
    return None


class Meter(Workload):
    name = "meter"
    min_blocks = 4
    trace_blocks = 1

    def __init__(self, numrep, seed: int) -> None:
        self.seed = seed
        self.lib = numrep
        self.ledger = json.loads(LEDGER.read_text())
        missing = (set(numrep.costmeter.METERED) ^ set(SCHEDULES)) | (set(SCHEDULES) - set(self.ledger))
        if missing:
            raise RuntimeError(f"schedule or ledger does not match the op ids: {sorted(missing)}")
        self.checks = [(suite, name, fn) for suite, entries in numrep.checks.SUITES.items()
                       for name, fn in entries]
        self.steps = 0
        self.checks_failed = 0

    def block(self, rec, tracer=None) -> None:
        measure = self.lib.costmeter.measure_schedule
        for suite, name, fn in self.checks:
            rng = random.Random(self.seed)
            rec.calibrate()
            t0 = perf_counter_ns()
            try:
                detail = fn(rng) if tracer is None else tracer.root(tracer.wrap(f"checks.{suite}", fn), rng)
            except Exception as exc:  # any library error is a failed operation
                detail = f"raised {exc!r}"
            rec.add(perf_counter_ns() - t0)
            if detail is not None:
                rec.fail(f"check {suite}: {name}: {detail}")
                self.checks_failed += 1
        for op_id, sizes in SCHEDULES.items():
            rec.calibrate()
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    samples = measure(op_id, sizes)
                else:
                    samples = tracer.root(tracer.wrap("costmeter.measure_schedule", measure), op_id, sizes)
            except Exception as exc:  # any library error is a failed operation
                rec.add(perf_counter_ns() - t0)
                rec.fail(f"{op_id} raised {exc!r}")
                continue
            rec.add(perf_counter_ns() - t0)
            detail = schedule_error(op_id, samples, self.ledger)
            if detail is not None:
                rec.fail(detail)
            if tracer is not None:
                self.steps += sum(steps for _, steps in samples)

    def trace_metrics(self, tracer):
        out = {f"checks.busy_s.{suite}": tracer.busy_s(f"checks.{suite}")
               for suite in self.lib.checks.SUITES}
        out["checks.failed"] = self.checks_failed
        out["costmeter.steps"] = self.steps
        return out

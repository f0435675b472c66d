"""Capture the reference data the workloads check against.

    python3 perfbench/capture.py

writes ``data/ledger.json``, every ``(n, steps)`` sample of the meter
workload's schedules, and ``data/cli_expected.json``, the exact stdout
and exit code of each cli workload line.  Run it only when a change to
a step count or to CLI output is intended and stated; the ledger is
cross-checked here against the closed forms the acceptance suite states.
"""

from __future__ import annotations

import json
import sys

from meter import LEDGER, SCHEDULES, schedule_error
from spawn import EXPECTED, LINES, ROOT, spawn


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from numrep import costmeter

    ledger = {op_id: costmeter.measure_schedule(op_id, sizes) for op_id, sizes in SCHEDULES.items()}
    for op_id, samples in ledger.items():
        detail = schedule_error(op_id, samples, ledger)
        if detail:
            print(detail, file=sys.stderr)
            return 1
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")

    expected = []
    for argv, stdin in LINES:
        code, out, _ = spawn(argv, stdin)
        expected.append({"argv": argv, "stdin": stdin, "exit": code, "stdout": out.decode()})
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

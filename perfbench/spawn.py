"""cli: each README command line spawned as a fresh interpreter.

One block runs the nine lines once, one child at a time: 3 ``convert``,
2 ``eval``, 2 ``braun`` with stdin piped, 1 ``bench`` and 1 ``check``.
``check --suite all`` runs as ``check --suite listlab``, because its
in-process work belongs to the meter workload.  Each child's stdout
bytes and exit code must equal those captured by ``capture.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from record import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "data" / "cli_expected.json"
TIMEOUT_S = 60

# (argv, stdin)
LINES = (
    (["convert", "--kind", "twoscomp", "--from", "int", "--to", "bits", "-5"], None),
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"], None),
    (["convert", "--kind", "cd", "--from", "literal", "--to", "int", "C(D(Z))"], None),
    (["eval", "--kind", "unary", "--op", "plus", "S(Z)", "S(Z)"], None),
    (["eval", "--kind", "twoscomp", "--op", "add", "N", "N"], None),
    (["braun"], "cons x\nfirst\n"),
    (["braun", "--init", "a,b"], "rest\naccess 0\n"),
    (["bench", "--op", "sumlist", "--sizes", "10,100"], None),
    (["check", "--suite", "listlab", "--seed", "12345"], None),
)


def spawn(argv, stdin):
    """Run one line in a child; (exit code, stdout bytes, child timings or None)."""
    proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT,
                          input=None if stdin is None else stdin.encode(),
                          stdin=subprocess.DEVNULL if stdin is None else None,
                          capture_output=True, timeout=TIMEOUT_S)
    try:
        timings = json.loads(proc.stderr.decode().splitlines()[-1])
    except (IndexError, ValueError):
        timings = None
    return proc.returncode, proc.stdout, timings


def spawn_bare(rec) -> None:
    """Time a bare interpreter doing nothing, as one operation of rec."""
    rec.calibrate()
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=TIMEOUT_S)
    rec.add(perf_counter_ns() - t0)


class Cli(Workload):
    name = "cli"
    min_blocks = 12
    warmup_blocks = 1
    trace_blocks = 2

    def __init__(self, numrep, seed: int) -> None:
        expected = json.loads(EXPECTED.read_text())
        self.lines = [(argv, stdin, e["exit"], e["stdout"].encode())
                      for (argv, stdin), e in zip(LINES, expected)]
        if [e["argv"] for e in expected] != [argv for argv, _ in LINES]:
            raise RuntimeError("expected outputs do not match the command lines")
        self.child_ms = {"import_ms": [], "main_ms": []}

    def block(self, rec, tracer=None) -> None:
        for argv, stdin, code, out in self.lines:
            rec.calibrate()
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    got_code, got_out, timings = spawn(argv, stdin)
                else:
                    got_code, got_out, timings = tracer.root(tracer.wrap("cli.main", spawn), argv, stdin)
            except (OSError, subprocess.SubprocessError) as exc:
                rec.add(perf_counter_ns() - t0)
                rec.fail(f"{argv} failed to run: {exc!r}")
                continue
            rec.add(perf_counter_ns() - t0)
            if (got_code, got_out) != (code, out):
                rec.fail(f"{argv} exited {got_code} with {got_out!r}, expected {code} with {out!r}")
            if timings:
                for key, ms in self.child_ms.items():
                    ms.append(timings[key] * rec.factor)

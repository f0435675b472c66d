"""The ``numrep`` command's one contract, and its console cases.

A case is an argv, optional stdin, the exit code and the expected stdout
(or its last line), and the expected stderr where the case pins it.
:func:`_faults` checks a case's outcome against those and against the
CLI's contract, which every case meets: exit 0 leaves stderr empty, and
exit 1 or 2 prints exactly one line, starting ``error: ``, shorter than
400 bytes.  argparse words its errors and help differently across Python
versions, so a case that reaches argparse's text pins only its exit
code and the contract.  Two runners apply it:

- :func:`run_cases` runs each case as the process ``prefix + argv``,
  here the console cases in :data:`CASES`;
- :func:`run_in_process` calls a ``main(argv)`` in this process, as
  ``tests/test_cli.py`` runs its table of cases against ``cli.main``.

Run every console case against an installed script or a module::

    python tests/test_console.py numrep
    python tests/test_console.py python3 -m numrep

pytest runs them as ``sys.executable -m numrep`` with ``src`` on the path.
This module needs only the standard library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class Case:
    argv: Sequence[str]
    code: int = 0
    stdout: Optional[str] = None
    last_line: Optional[str] = None  # of stdout, where stdout is not pinned whole
    stderr: Optional[str] = None
    stdin: Optional[str] = None


BIG = "1000000000000000000"
CASES = [
    Case(["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"], stdout="A(A(B(Z)))\n"),
    Case(["eval", "--kind", "binary", "--op", "add", " B ( Z ) ", "B(Z)"], stdout="A(B(Z))\n"),
    Case(["eval", "--kind", "twoscomp", "--op", "sub", "A(N)", "B(B(Z))"], stdout="B(B(A(N)))\n"),
    Case(["eval", "--kind", "binary", "--op", "mul", "B(B(A(B(Z))))", "B(A(B(B(Z))))"],
         stdout="B(B(B(B(A(A(A(B(Z))))))))\n"),
    Case(["convert", "--kind", "cd", "--from", "int", "--to", "literal", "12"], stdout="D(C(D(Z)))\n"),
    Case(["eval", "--kind", "unary", "--op", "add", "S(S(Z))", "S(Z)"], stdout="S(S(S(Z)))\n"),
    Case(["eval", "--kind", "unary", "--op", "plus", "S(S(Z))", "S(Z)"], stdout="S(S(S(Z)))\n"),
    Case(["eval", "--kind", "unary", "--op", "mul", "S(S(Z))", "S(S(S(Z)))"], stdout="S(S(S(S(S(S(Z))))))\n"),
    Case(["eval", "--kind", "binary", "--op", "add1", "B(B(Z))"], stdout="A(A(B(Z)))\n"),
    Case(["eval", "--kind", "twoscomp", "--op", "add", "B(B(Z))", "A(N)"], stdout="B(Z)\n"),
    Case(["eval", "--kind", "twoscomp", "--op", "add1", "A(N)"], stdout="N\n"),
    Case(["eval", "--kind", "twoscomp", "--op", "neg", "B(B(Z))"], stdout="B(A(N))\n"),
    Case(["convert", "--kind", "unary", "--from", "literal", "--to", "int", "S(S(S(Z)))"], stdout="3\n"),
    Case(["convert", "--kind", "twoscomp", "--from", "literal", "--to", "int", "B(A(N))"], stdout="-3\n"),
    Case(["braun"], stdin="cons x\nfirst\n", stdout="x\n"),
    Case(["braun", "--init", "a,b"], stdin="rest\naccess 0\n", stdout="b\n"),
    Case(["braun", "--init", ",".join(map(str, range(1000)))],
         stdin="access 999\nrest\naccess 0\nupdate 5 z\naccess 5\nfirst\n", stdout="999\n1\nz\n1\n"),
    Case(["eval", "--kind", "binary", "--op", "add", "B(Z", "Z"], 2, stdout="",
         stderr="error: expected ')' (at position 3)\n"),
    Case(["convert", "--kind", "unary", "--from", "int", "--to", "int", "1" + "0" * 30], 1, stdout="",
         stderr="error: cannot represent 1" + "0" * 30 + " as a unary natural: over the height bound of 1048576\n"),
    Case(["bench", "--op", "sumlist", "--sizes", "10,100"], stdout="n,steps\n10,11\n100,101\n"),
    Case(["bench", "--op", "bs_access", "--sizes", "1,1000"], stdout="n,steps\n1,0\n1000,9\n"),
    Case(["bench", "--op", "bs_access", "--sizes", f"1,{BIG}"], stdout=f"n,steps\n1,0\n{BIG},59\n"),
    Case(["bench", "--op", "bs_rest", "--sizes", f"1,1000,{BIG}"], stdout=f"n,steps\n1,1\n1000,10\n{BIG},60\n"),
    Case(["bench", "--op", "sumlist", "--sizes=-3"], 2, stdout="",
         stderr="error: sumlist has no worst-case input of negative size -3\n"),
    Case(["bench", "--op", "sumlist", "--sizes", "-1,2"], 2, stdout="",
         stderr="error: sumlist has no worst-case input of negative size -1\n"),
    Case(["bench", "--op", "b_mult", "--sizes", "1024"], 2, stdout="",
         stderr="error: b_mult at size 1024 is over the meter's budget of 1048576 steps\n"),
    Case(["bench", "--op", "sumlist", "--sizes", "9" * 5000], 2, stdout="",
         stderr="error: sumlist at size of 16610 bits is over the meter's budget of 1048576 steps\n"),
    Case(["check", "--suite", "unary", "--seed", "12345"], last_line="5/5 properties held"),
    Case(["check", "--suite", "listlab", "--seed", "12345"], last_line="4/4 properties held"),
    Case(["check", "--suite", "binary", "--seed", "12345"], last_line="8/8 properties held"),
    Case(["check", "--suite", "twoscomp", "--seed", "12345"], last_line="7/7 properties held"),
    Case(["check", "--suite", "braun", "--seed", "12345"], last_line="7/7 properties held"),
    Case(["check", "--suite", "listlab", "--seed", "9" * 5000], last_line="4/4 properties held"),
    Case(["c" * 3000], 2, stdout=""),
    Case(["check", "--suite", "all", "--seed", "12345"], last_line="31/31 properties held"),
    # argparse's own usage errors, one line each like every other
    Case(["check"], 2, stdout=""),
    Case(["bench", "--op", "frobnicate", "--sizes", "4"], 2, stdout=""),
    Case(["--help"]),
]


def _shown_argv(argv: Sequence[str]) -> str:
    return " ".join(repr(a) if len(a) <= 60 else repr(a[:60]) + f"...({len(a)} chars)" for a in argv)


def _short(data: bytes) -> str:
    return repr(data) if len(data) <= 200 else repr(data[:200]) + f"...({len(data)} bytes)"


def _faults(case: Case, code: int, out: bytes, err: bytes) -> List[str]:
    faults = []
    if code != case.code:
        faults.append(f"exit {code}, expected {case.code}")
    if case.stdout is not None and out != case.stdout.encode():
        faults.append(f"stdout {_short(out)}, expected {_short(case.stdout.encode())}")
    if case.last_line is not None and out.splitlines()[-1:] != [case.last_line.encode()]:
        faults.append(f"stdout {_short(out)}, expected a last line {case.last_line!r}")
    if case.stderr is not None and err != case.stderr.encode():
        faults.append(f"stderr {_short(err)}, expected {_short(case.stderr.encode())}")
    # the contract, on what the process did
    if code == 0 and err:
        faults.append(f"exit 0 with stderr {_short(err)}")
    elif code in (1, 2) and not (err.startswith(b"error: ") and err.count(b"\n") == 1
                                 and err.endswith(b"\n") and len(err) < 400):
        faults.append(f"exit {code} with stderr {_short(err)}, not one error line under 400 bytes")
    elif code not in (0, 1, 2):
        faults.append(f"exit {code} is none of 0, 1 and 2")
    return faults


def run_cases(prefix: Sequence[str], cases: Sequence[Case], env=None) -> List[str]:
    """Run each case as the process ``prefix + argv``; one line per failed case, naming its argv."""
    failures = []
    for case in cases:
        try:  # a case with no stdin reads an empty one, never the runner's
            proc = subprocess.run([*prefix, *case.argv], input=(case.stdin or "").encode(),
                                  capture_output=True, env=env, timeout=120)
            faults = _faults(case, proc.returncode, proc.stdout, proc.stderr)
        except (OSError, subprocess.TimeoutExpired) as exc:
            faults = [f"did not run: {exc}"]
        if faults:
            failures.append(f"{_shown_argv(case.argv)}: {'; '.join(faults)}")
    return failures


def run_in_process(main, case: Case) -> List[str]:
    """Call ``main(argv)`` on the case's argv and stdin, with stdout and stderr captured; its faults."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(case.stdin or "")  # as run_cases, an empty stdin where the case has none
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case.argv))
    finally:
        sys.stdin = stdin
    return _faults(case, code, out.getvalue().encode(), err.getvalue().encode())


def _module_prefix():
    """``sys.executable -m numrep`` and an environment with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "numrep"], env


def test_every_console_case_holds_as_a_process():
    prefix, env = _module_prefix()
    assert run_cases(prefix, CASES, env) == []


def test_the_runner_reports_a_wrong_stdout_byte_and_a_wrong_exit_code_with_the_argv():
    prefix, env = _module_prefix()
    argv = ["eval", "--kind", "binary", "--op", "add1", "Z"]
    for wrong, fault in [(Case(argv, stdout="B(Y)\n"), "stdout b'B(Z)\\n', expected b'B(Y)\\n'"),
                         (Case(argv, 1, stdout="B(Z)\n"), "exit 0, expected 1")]:
        assert run_cases(prefix, [wrong], env) == [f"'eval' '--kind' 'binary' '--op' 'add1' 'Z': {fault}"]


def test_the_runner_needs_only_the_standard_library():
    # CI runs this file as a script against an installed command, without pytest or src on the path
    script = str(Path(__file__).resolve())
    proc = subprocess.run([sys.executable, "-S", "-I", script], capture_output=True, timeout=60)
    usage = f"usage: {script} COMMAND [ARG...]  (a command prefix such as: numrep)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", usage.encode())


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND [ARG...]  (a command prefix such as: numrep)")
    failures = run_cases(sys.argv[1:], CASES)
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(CASES) - len(failures)}/{len(CASES)} console cases held")
    sys.exit(1 if failures else 0)

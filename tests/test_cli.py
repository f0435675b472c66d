"""The ``numrep`` command, run in this process through ``cli.main``.

Most cases are rows of :data:`CLI_CASES`: an argv and stdin in, the exit
code and outputs out.  ``test_console.run_in_process`` checks each row
against what it pins and against the CLI's one contract, as
``tests/test_console.py`` checks its console cases as processes; a row
that would repeat a console case is left to it.  The Braun index and
bad-script-line rows are run the same way by the parametrized tests that
first held them, under the same test ids.  The tests that stay
functions need more than argv in, outputs out: they patch a layer, a
loader, the int/str digit limit or the terminal width; they bound a
command's time; they run a fresh interpreter (``python -m``, a closed
pipe, deep recursion, the layers a command loads, a capped address
space); they feed one
command's output to the next; or they pin argparse's help and usage
texts at one terminal width.  ``python -m`` runs with ``test_console``'s
environment; ``python -S``, the fresh thread, the foreign loaders and the
first sizes over the meter's budget come from ``tests/shared.py``.
"""

import contextlib
import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shared import FIRST_OVER_BUDGET, NoSource, Sourceless, in_a_fresh_thread, run_python
from test_console import BIG, Case, _faults, _module_prefix, run_in_process

import numrep
from numrep import binary, checks, cli, costmeter, listlab, numio, twoscomp, unary


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# what each suite of check prints, property by property, when all hold
PROPERTIES = {
    "unary": ["int roundtrip 0..2000", "plus/add agree with machine addition (0..60)",
              "plus commutative and associative (0..25)", "accumulative add has left identity (0..100)",
              "plus/add step counts equal second argument + 1"],
    "listlab": ["accumulating sum equals offset plus structural sum", "sumlist2 equals sumlist",
                "both maxima agree with the builtin maximum",
                "step counts: linear sums/filter, exponential naive max"],
    "binary": ["small values have the expected digit shapes", "add agrees with machine addition",
               "both addition algorithms build identical structures", "mult agrees with machine multiplication",
               "arithmetic outputs are canonical", "size equals the bit length (1..4096)",
               "increment cost equals trailing ones + 1", "addition cost within the frozen linear bound"],
    "twoscomp": ["signed conversions roundtrip (-512..512)", "add/sub/neg agree with machine arithmetic",
                 "nonnegative add matches the binary algorithm exactly", "bit strings match the fixed table",
                 "bit rendering is injective (-512..512)", "complement involution, add1/sub1 inverses",
                 "arithmetic outputs are canonical"],
    "braun": ["shape invariant after every operation", "operations agree with plain list operations",
              "persistence: older versions survive later operations", "depth equals floor(log2 n) + 1 (1..1024)",
              "access visits equal the index digit count", "cons/rest visits stay within depth + 1",
              "index numerals biject with machine integers"],
}


def held(*suites):
    lines = [f"PASS  {suite}: {name}\n" for suite in suites for name in PROPERTIES[suite]]
    return "".join(lines) + f"{len(lines)}/{len(lines)} properties held\n"


def convert(kind, src, dst, value):
    return ["convert", "--kind", kind, "--from", src, "--to", dst, value]


def error(code, message):
    """A refusal: nothing on stdout, one error line."""
    return dict(code=code, stdout="", stderr=f"error: {message}\n")


LONG = "9" * 20000  # past Python's int/str digit limit
ONE_AT_5000 = "1" + "0" * 5000  # 10^5000, of 16610 bits
CLI_CASES = {
    "convert-int-to-bits": Case(convert("twoscomp", "int", "bits", "-5"), stdout="...1011\n"),
    "convert-literal-to-int": Case(convert("cd", "literal", "int", "C(D(Z))"), stdout="5\n"),
    "convert-bits-to-int": Case(convert("twoscomp", "bits", "int", "...1011"), stdout="-5\n"),
    "convert-bits-need-twoscomp": Case(convert("binary", "int", "bits", "4"),
                                       **error(2, "bit-string form is only available for --kind twoscomp")),
    "convert-non-canonical": Case(convert("binary", "literal", "int", "A(Z)"),
                                  **error(1, "non-canonical literal: A applied directly to Z")),
    "convert-syntax-error": Case(convert("binary", "literal", "int", "A(Q)"),
                                 **error(2, "unexpected character 'Q' (at position 2)")),
    "convert-negative-unary": Case(convert("unary", "int", "literal", "-1"),
                                   **error(1, "cannot represent -1 as a unary natural")),
    "convert-bad-int": Case(convert("binary", "int", "literal", "four"), **error(2, "value is not an integer: 'four'")),
    # an error names a long number by its bit length, and quotes at most 60 characters of a text
    "long-unary": Case(convert("unary", "int", "literal", "-" + LONG),
                       **error(1, "cannot represent a negative number of 66439 bits as a unary natural")),
    "long-unary-over-bound": Case(convert("unary", "int", "literal", LONG), **error(
        1, "cannot represent a number of 66439 bits as a unary natural: over the height bound of 1048576")),
    "long-binary": Case(convert("binary", "int", "literal", "-" + LONG),
                        **error(1, "cannot represent a negative number of 66439 bits as a binary natural")),
    "long-cd": Case(convert("cd", "int", "literal", "-" + LONG),
                    **error(1, "cannot represent a negative number of 66439 bits as an index numeral")),
    "long-bits": Case(convert("twoscomp", "bits", "int", "..." + "2" * 5000),
                      **error(2, "bit string needs a 0/1 tail digit and bits: '..." + "2" * 57 + "...'")),
    "long-bits-prefix": Case(convert("twoscomp", "bits", "int", "2" * 5000),
                             **error(2, "bit string must start with '...': '" + "2" * 60 + "...'")),
    "long-bench": Case(["bench", "--op", "sumlist", "--sizes", "9" * 4000],
                       **error(2, "sumlist at size of 13288 bits is over the meter's budget of 1048576 steps")),
    "long-bench-negative": Case(["bench", "--op", "sumlist", "--sizes", "-" + "9" * 4000],
                                **error(2, "sumlist has no worst-case input of negative size of 13288 bits")),
    "long-bench-5001-digits": Case(["bench", "--op", "sumlist", "--sizes", ONE_AT_5000],
                                   **error(2, "sumlist at size of 16610 bits is over the meter's budget of 1048576 steps")),
    "eval-unary-plus": Case(["eval", "--kind", "unary", "--op", "plus", "S(Z)", "S(Z)"], stdout="S(S(Z))\n"),
    "eval-binary-add": Case(["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"], stdout="A(B(Z))\n"),
    "eval-twoscomp-add": Case(["eval", "--kind", "twoscomp", "--op", "add", "N", "N"], stdout="A(N)\n"),
    "eval-twoscomp-neg": Case(["eval", "--kind", "twoscomp", "--op", "neg", "B(A(B(Z)))"],
                              stdout="B(B(A(N)))\n"),  # -5
    "eval-twoscomp-sub": Case(["eval", "--kind", "twoscomp", "--op", "sub", "B(B(Z))", "A(B(A(B(Z))))"],
                              stdout="B(A(A(N)))\n"),  # 3 - 10 = -7
    "eval-unsupported": Case(["eval", "--kind", "unary", "--op", "neg", "S(Z)"],
                             **error(2, "operation 'neg' is not available for kind 'unary'")),
    "eval-wrong-arity": Case(["eval", "--kind", "binary", "--op", "add", "B(Z)"],
                             **error(2, "add takes 2 operand(s), got 1")),
    "braun-access": Case(["braun", "--init", "a,b,c"], stdin="access 1\n", stdout="b\n"),
    "braun-update": Case(["braun", "--init", "a,b,c"], stdin="update 1 z\naccess 1\naccess 0\n", stdout="z\na\n"),
    "braun-index-not-an-integer": Case(["braun", "--init", "a"], stdin="access " + "x" * 5000 + "\n",
                                       **error(2, "index is not an integer: '" + "x" * 60 + "...'")),
    "bench-max-naive": Case(["bench", "--op", "max_naive", "--sizes", "8,10"], stdout="n,steps\n8,255\n10,1023\n"),
    # at sizes no n-node tree could hold
    "bench-bs-access-10^18": Case(["bench", "--op", "bs_access", "--sizes", f"1,1000,{BIG}"],
                                  stdout=f"n,steps\n1,0\n1000,9\n{BIG},59\n"),
    "bench-bs-access-10^5000": Case(["bench", "--op", "bs_access", "--sizes", ONE_AT_5000],
                                    stdout=f"n,steps\n{ONE_AT_5000},16609\n"),
    "bench-bad-sizes": Case(["bench", "--op", "sumlist", "--sizes", "ten"],
                            **error(2, "--sizes must be comma-separated integers: 'ten'")),
    "bench-bad-sizes-5002-characters": Case(["bench", "--op", "sumlist", "--sizes", "1," + "x" * 5000],
                                            **error(2, "--sizes must be comma-separated integers: '1," + "x" * 58 + "...'")),
    "bench-negative-size": Case(["bench", "--op", "sumlist", "--sizes=-3,1"],
                                **error(2, "sumlist has no worst-case input of negative size -3")),
    "check-all": Case(["check", "--suite", "all"], stdout=held(*PROPERTIES)),
    "check-braun": Case(["check", "--suite", "braun"], stdout=held("braun")),
    "check-seed": Case(["check", "--suite", "listlab", "--seed", "99"], stdout=held("listlab")),
    "check-seed-4301-digits": Case(["check", "--suite", "listlab", "--seed", "9" * 4301], stdout=held("listlab")),
    "check-seed-131072-digits": Case(["check", "--suite", "listlab", "--seed", "9" * 131072], stdout=held("listlab")),
    "check-seed-131073-digits": Case(["check", "--suite", "listlab", "--seed", "9" * 131073],
                                     **error(2, "--seed is longer than 131072 characters: '" + "9" * 60 + "...'")),
    "check-seed-not-an-integer": Case(["check", "--suite", "listlab", "--seed", "ninety-nine"],
                                      **error(2, "--seed is not an integer: 'ninety-nine'")),
    # argparse words these
    "unknown-command": Case(["frobnicate"], 2, stdout=""),
    "missing-required-flag": Case(["convert", "--kind", "binary", "--from", "int", "4"], 2, stdout=""),
}


@pytest.mark.parametrize("case", CLI_CASES.values(), ids=list(CLI_CASES))
def test_cli_case(case):
    assert run_in_process(cli.main, case) == []


def test_every_pinned_error_line_is_at_most_200_bytes():
    assert [name for name, case in CLI_CASES.items() if len((case.stderr or "").encode()) > 200] == []


# --- convert -------------------------------------------------------------------

@pytest.mark.parametrize("n", [2 ** 20 + 1, 10 ** 30])
def test_convert_refuses_a_unary_value_over_the_height_bound_at_once(capsys, n):
    start = time.perf_counter()
    result = run(capsys, ["convert", "--kind", "unary", "--from", "int", "--to", "int", str(n)])
    assert time.perf_counter() - start < 0.5
    message = f"cannot represent {n} as a unary natural: over the height bound of 1048576"
    assert result == (1, "", f"error: {message}\n")


@contextlib.contextmanager
def any_int_digits():
    """Lift Python's int/str digit limit for the oracle's own str()."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_convert_decimals_past_pythons_int_str_digit_limit(capsys):
    literal = "B(" * 15000 + "Z" + ")" * 15000
    with any_int_digits():
        decimal = str(2**15000 - 1)  # 4516 digits; Python's default limit is 4300
    assert run(capsys, ["convert", "--kind", "binary", "--from", "literal", "--to", "int", literal]) \
        == (0, decimal + "\n", "")
    assert run(capsys, ["convert", "--kind", "binary", "--from", "int", "--to", "literal", decimal]) \
        == (0, literal + "\n", "")
    negative = "B(" + "A(" * 14999 + "N" + ")" * 15000  # 1 - 2**15000
    assert run(capsys, ["convert", "--kind", "twoscomp", "--from", "int", "--to", "literal", "-" + decimal]) \
        == (0, negative + "\n", "")
    assert run(capsys, ["convert", "--kind", "twoscomp", "--from", "literal", "--to", "int", negative]) \
        == (0, "-" + decimal + "\n", "")


@pytest.mark.parametrize("argv, code", [
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"], 0),
    (["convert", "--kind", "unary", "--from", "int", "--to", "literal", "-1"], 1),
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "four"], 2),
    # main lifts the limit for every subcommand, and restores it on every outcome
    (["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"], 0),
    (["braun", "--init", "a"], 0),
    (["bench", "--op", "sumlist", "--sizes", "10"], 0),
    (["bench", "--op", "sumlist", "--sizes", "9" * 5000], 2),
    (["check", "--suite", "listlab"], 0),
    (["convert", "--kind", "octal", "--from", "int", "--to", "literal", "4"], 2),
])
def test_convert_restores_the_int_str_digit_limit(capsys, monkeypatch, argv, code):
    monkeypatch.setattr("sys.stdin", io.StringIO("access 0\n"))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        result = cli.main(argv)
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert (result, after) == (code, 5000)


# each kind's literals of 0 and 5; a kind without them fails at collection
LITERALS = {"unary": ("Z", "S(S(S(S(S(Z)))))"), "binary": ("Z", "B(A(B(Z)))"),
            "twoscomp": ("Z", "B(A(B(Z)))"), "cd": ("Z", "C(D(Z))")}


@pytest.mark.parametrize("kind, value, literal", [
    *((kind, value, LITERALS[kind][i]) for kind in numio.KINDS for i, value in enumerate(("0", "5"))),
    ("binary", "7" * 5000, None), ("twoscomp", "7" * 5000, None), ("twoscomp", "-" + "7" * 5000, None),
    ("cd", "7" * 5000, None),
], ids=lambda v: v if v is None or len(v) < 10 else f"{len(v)}-chars")
def test_convert_int_to_literal_and_back_for_every_kind(capsys, kind, value, literal):
    code, out, err = run(capsys, ["convert", "--kind", kind, "--from", "int", "--to", "literal", value])
    assert (code, err) == (0, "")
    assert literal is None or out == literal + "\n"
    code, out, err = run(capsys, ["convert", "--kind", kind, "--from", "literal", "--to", "int", out.strip()])
    assert (code, out, err) == (0, value + "\n", "")


def run_module(module, argv, **kwargs):
    """Run the CLI as ``python -m module`` in a fresh interpreter."""
    _, env = _module_prefix()
    kwargs = {"capture_output": True, "text": True, **kwargs}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env, timeout=60, **kwargs)


# python -m numrep runs every case of tests/test_console.py
@pytest.mark.parametrize("module", ["numrep.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = run_module(module, ["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"])
    assert proc.returncode == 0
    assert proc.stdout == "A(A(B(Z)))\n"


def test_a_reader_that_closed_the_pipe_gets_exit_1_and_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = run_module("numrep", ["check", "--suite", "listlab"], capture_output=False,
                          stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def numrep_modules_loaded_by(code, stdin=""):
    """Run code in a fresh ``python -S`` with src on sys.path; the numrep modules it loaded, sorted."""
    proc = run_python(f"{code}\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] == 'numrep'))", stdin)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def tooling_layers_loaded_by(code, stdin=""):
    """The tooling layers that code loaded in a fresh interpreter, as the repr of a sorted list."""
    return repr([m for m in numrep_modules_loaded_by(code, stdin) if m in ("numrep.checks", "numrep.costmeter")])


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"], []),
    (["eval", "--kind", "twoscomp", "--op", "add", "N", "N"], []),
    (["braun", "--init", "a,b"], []),
    (["bench", "--help"], ["numrep.costmeter"]),
    (["bench", "--op", "sumlist", "--sizes", "10"], ["numrep.costmeter"]),
    (["check", "--suite", "listlab"], ["numrep.checks", "numrep.costmeter"]),
])
def test_each_command_loads_only_the_tooling_layers_it_runs(argv, loaded):
    code = f"import numrep.cli; numrep.cli.main({argv!r})"
    assert tooling_layers_loaded_by(code, stdin="access 0\n") == repr(loaded)


@pytest.mark.parametrize("argv, code, modules", [
    (["--help"], 0, []),
    (["convert", "--kind", "unary", "--from", "literal", "--to", "int", "S(S(Z))"], 0, ["numio", "unary"]),
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"], 0, ["numio"]),
    (["convert", "--kind", "twoscomp", "--from", "int", "--to", "literal", "-5"], 0, ["numio", "twoscomp"]),
    (["convert", "--kind", "twoscomp", "--from", "int", "--to", "bits", "-5"], 0, ["numio", "twoscomp"]),
    (["convert", "--kind", "twoscomp", "--from", "bits", "--to", "int", "...1011"], 0, ["numio", "twoscomp"]),
    (["convert", "--kind", "cd", "--from", "int", "--to", "literal", "12"], 0, ["braun", "numio"]),
    (["eval", "--kind", "unary", "--op", "plus", "S(Z)", "S(Z)"], 0, ["numio", "unary"]),
    (["eval", "--kind", "binary", "--op", "mul", "B(Z)", "B(B(Z))"], 0, ["numio"]),
    (["eval", "--kind", "twoscomp", "--op", "add", "N", "N"], 0, ["numio", "twoscomp"]),
    (["eval", "--kind", "cd", "--op", "add", "Z", "Z"], 2, ["numio"]),
    (["braun", "--init", "a,b"], 0, ["braun"]),
    (["bench", "--help"], 0, ["costmeter"]),
    (["bench", "--op", "sumlist", "--sizes", "10"], 0, ["_clauses", "costmeter", "listlab", "numio"]),
    (["check", "--suite", "unary"], 0, ["_clauses", "checks", "costmeter", "unary"]),
    (["check", "--suite", "listlab"], 0, ["_clauses", "checks", "costmeter", "listlab"]),
    (["check", "--suite", "binary"], 0, ["_clauses", "checks", "costmeter"]),
    (["check", "--suite", "twoscomp"], 0, ["checks", "costmeter", "twoscomp"]),
    (["check", "--suite", "braun"], 0, ["_clauses", "braun", "checks", "costmeter"]),
])
def test_each_command_loads_only_the_layers_it_runs(argv, code, modules):
    run = f"import numrep.cli; assert numrep.cli.main({argv!r}) == {code}"
    expected = ["numrep", "numrep.binary", "numrep.cli", *(f"numrep.{m}" for m in modules)]
    assert numrep_modules_loaded_by(run, stdin="access 0\n") == sorted(expected)


def test_every_eval_operation_is_a_function_of_its_kinds_layer_with_its_arity():
    assert len(cli._EVAL_OPS) == 10
    for (kind, op), name in cli._EVAL_OPS.items():
        fn = getattr(getattr(numrep, kind), name)
        assert kind == numio._MAKE[kind].layer  # eval loads only the layer its literals load
        # eval reads the arity from co_argcount, which counts optional parameters too
        assert (fn.__module__, fn.__defaults__) == (f"numrep.{kind}", None)


def test_naming_the_kinds_loads_no_layer():
    code = ("import numrep.numio as n; assert list(n.KINDS) == ['unary', 'binary', 'twoscomp', 'cd']; "
            "assert 'cd' in n.KINDS and 'nope' not in n.KINDS and len(n.KINDS) == 4")
    assert numrep_modules_loaded_by(code) == ["numrep", "numrep.binary", "numrep.numio"]


def test_naming_the_op_ids_and_the_suites_loads_no_layer():
    code = ("from numrep import checks, costmeter as m; assert len(list(m.METERED)) == len(m.METERED) == 15; "
            "assert 'bs_rest' in m.METERED and 'nope' not in m.METERED; "
            "assert checks.SUITE_NAMES == ('unary', 'listlab', 'binary', 'twoscomp', 'braun', 'all')")
    assert numrep_modules_loaded_by(code) == ["numrep", "numrep.binary", "numrep.checks", "numrep.costmeter"]


@pytest.mark.parametrize("argv, error", [
    (["bench", "--op", "max_naive", "--sizes", "30"],
     "error: max_naive at size 30 is over the meter's budget of 1048576 steps\n"),
    (["bench", "--op", "bs_rest", "--sizes", "0"], "error: bs_rest has no worst-case input of size 0\n"),
])
def test_a_refused_bench_loads_no_layer(capsys, argv, error):
    assert run(capsys, argv) == (2, "", error)
    loaded = numrep_modules_loaded_by(f"import numrep.cli; assert numrep.cli.main({argv!r}) == 2")
    assert loaded == ["numrep", "numrep.binary", "numrep.cli", "numrep.costmeter"]


@pytest.mark.parametrize("layer, value, text", [
    ("braun", "cd_from_int(12)", "D(C(D(Z)))"),
    ("unary", "from_int(2)", "S(S(Z))"),
    ("twoscomp", "from_int(-5)", "B(B(A(N)))"),
    ("binary", "from_int(4)", "A(A(B(Z)))"),
])
def test_a_numeral_prints_in_a_fresh_process_that_never_named_its_kind(layer, value, text):
    code = (f"from numrep import {layer}, numio; assert not numio.KINDS._made; "
            f"assert numio.print_numeral({layer}.{value}) == {text!r}")
    assert numrep_modules_loaded_by(code) == sorted({"numrep", "numrep.binary", f"numrep.{layer}", "numrep.numio"})


def test_measuring_does_not_import_inspect():
    # the meter builds its twins with ast, whose cleaned docstrings would import inspect (~7 ms)
    code = "import numrep.cli; numrep.cli.main(['bench', '--op', 'sumlist', '--sizes', '10']); assert 'inspect' not in sys.modules"
    assert tooling_layers_loaded_by(code) == "['numrep.costmeter']"


def test_the_package_loads_its_tooling_layers_on_first_use():
    assert tooling_layers_loaded_by("import numrep; assert set(numrep.__all__) <= set(dir(numrep))") == "[]"
    assert tooling_layers_loaded_by("import numrep; assert 'sumlist' in numrep.costmeter.METERED") \
        == "['numrep.costmeter']"
    assert tooling_layers_loaded_by("from numrep import checks; assert 'all' in checks.SUITE_NAMES") \
        == "['numrep.checks', 'numrep.costmeter']"


def test_the_package_loads_every_layer_on_first_use():
    assert numrep_modules_loaded_by("import numrep") == ["numrep"]
    assert numrep_modules_loaded_by("import numrep; numrep.braun") == ["numrep", "numrep.binary", "numrep.braun"]
    assert numrep_modules_loaded_by("from numrep import braun") == ["numrep", "numrep.binary", "numrep.braun"]
    assert numrep_modules_loaded_by("import numrep; assert not hasattr(numrep, 'nope')") == ["numrep"]
    bound = "from numrep import *; import numrep; assert [globals()[n] for n in numrep.__all__] " \
            "== [sys.modules[f'numrep.{n}'] for n in numrep.__all__]"
    assert numrep_modules_loaded_by(bound) == sorted(["numrep", *(f"numrep.{n}" for n in numrep.__all__)])


def test_an_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        numrep.nope


# --- eval ----------------------------------------------------------------------

def test_eval_too_deep_for_the_recursion_limit(capsys):
    literal = numio.print_numeral(binary.from_int(2**3000 - 1))  # 3000 digits
    code, out, err = run(capsys, ["eval", "--kind", "binary", "--op", "add", literal, literal])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_eval_out_of_memory(capsys, monkeypatch):
    def exhausted(x, y):
        raise MemoryError

    # the dispatch table names the layer's function, found when eval runs it
    monkeypatch.setattr(binary, "add_v2", exhausted)
    code, out, err = run(capsys, ["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"])
    assert code == 1
    assert out == ""
    assert err == "error: MemoryError\n"


HEIGHT = 1 << 20  # unary's height bound: its tower takes about 66 MB past a bare interpreter's address space on 3.11


@pytest.mark.parametrize("extra_mb, case", [
    (24, Case(["convert", "--kind", "unary", "--from", "int", "--to", "literal", str(HEIGHT)], 1, stdout="",
              stderr="error: MemoryError\n")),
    (24, Case(["convert", "--kind", "unary", "--from", "int", "--to", "int", str(HEIGHT)], 1, stdout="",
              stderr="error: MemoryError\n")),
    (160, Case(["convert", "--kind", "unary", "--from", "int", "--to", "literal", str(HEIGHT)],
               stdout="S(" * HEIGHT + "Z" + ")" * HEIGHT + "\n")),
], ids=["literal-out-of-memory", "int-out-of-memory", "literal-within-the-cap"])
def test_a_command_under_an_address_space_cap_meets_the_contract(extra_mb, case):
    # python -S -m numrep in a child that caps its address space at what it
    # started with plus extra_mb, so that running out raises MemoryError
    # where the command runs, at the same margin on any interpreter version
    proc = run_python(f"""
import resource, runpy
with open("/proc/self/status") as status:
    start = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (start + ({extra_mb} << 20),) * 2)
sys.argv = ["numrep", *{list(case.argv)!r}]
runpy.run_module("numrep", run_name="__main__", alter_sys=True)
""")
    assert _faults(case, proc.returncode, proc.stdout.encode(), proc.stderr.encode()) == []


# --- braun ---------------------------------------------------------------------

# an index out of range, and a bad script line, each after a line that printed
def test_braun_access_out_of_range():
    case = Case(["braun", "--init", "a,b,c"], stdin="access 0\naccess 3\n", code=1, stdout="a\n",
                stderr="error: index 3 out of range for length 3\n")
    assert run_in_process(cli.main, case) == []


def test_braun_bad_script_line():
    case = Case(["braun", "--init", "a,b,c"], stdin="access 0\nswizzle 3\n", code=2, stdout="a\n",
                stderr="error: bad script line: 'swizzle 3'\n")
    assert run_in_process(cli.main, case) == []


# rows of the CLI_CASES kind, run by the tests these ids were first written for
BRAUN_INDEX = {
    "access": Case(["braun", "--init", "a"], stdin="access 3\n", **error(1, "index 3 out of range for length 1")),
    "update": Case(["braun", "--init", "a"], stdin="update -1 v\n", **error(1, "index -1 out of range for length 1")),
    # past Python's int/str digit limit
    "access-5000-digits": Case(["braun", "--init", "a"], stdin=f"access {ONE_AT_5000[:-1]}\n",
                               **error(1, "index of 16607 bits out of range for length 1")),
    "update-5000-digits": Case(["braun", "--init", "a"], stdin=f"update {ONE_AT_5000[:-1]} v\n",
                               **error(1, "index of 16607 bits out of range for length 1")),
}
BAD_LINE = {
    "short": Case(["braun", "--init", "a"], stdin="swizzle 3\n", **error(2, "bad script line: 'swizzle 3'")),
    "wrong-arity": Case(["braun", "--init", "a"], stdin="access 1 2\n", **error(2, "bad script line: 'access 1 2'")),
    "60-characters": Case(["braun", "--init", "a"], stdin="swizzle " + "x" * 52 + "\n",
                          **error(2, "bad script line: 'swizzle " + "x" * 52 + "'")),  # shown whole
    "5008-characters": Case(["braun", "--init", "a"], stdin="swizzle " + "x" * 5000 + "\n",
                            **error(2, "bad script line: 'swizzle " + "x" * 52 + "...'")),
}


@pytest.mark.parametrize("case", BRAUN_INDEX.values(), ids=list(BRAUN_INDEX))
def test_braun_index_out_of_range_is_one_short_line(case):
    assert run_in_process(cli.main, case) == []
    assert len(case.stderr.encode()) <= 200


@pytest.mark.parametrize("case", BAD_LINE.values(), ids=list(BAD_LINE))
def test_braun_bad_script_line_echoes_a_bounded_prefix(case):
    assert run_in_process(cli.main, case) == []
    assert len(case.stderr.encode()) <= 200


@pytest.mark.parametrize("digits, code", [(131072, 1), (131073, 2), (1_000_000, 2)])
def test_braun_index_past_the_argument_cap_is_refused_before_parsing(capsys, monkeypatch, digits, code):
    # int() is quadratic: a million digits took about 10 s to parse
    line = "access 1" + "0" * (digits - 1) + "\n"
    start = time.perf_counter()
    got, _, err = run(capsys, ["braun", "--init", "a"], stdin=line, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert got == code and err.count("\n") == 1 and len(err.encode()) <= 200
    if code == 2:
        assert err == "error: index is longer than 131072 characters: '1" + "0" * 59 + "...'\n"


# --- bench ---------------------------------------------------------------------

def test_bench_max_naive_refuses_sizes_above_20_before_measuring(capsys, monkeypatch):
    measured = []
    monkeypatch.setattr(costmeter, "measure_schedule", lambda op, sizes: measured.append(sizes) or [])
    code, out, err = run(capsys, ["bench", "--op", "max_naive", "--sizes", "1,8,64,512"])
    assert (code, out, measured) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, ["bench", "--op", "max_naive", "--sizes", "20"])[0] == 0
    assert run(capsys, ["bench", "--op", "sumlist", "--sizes", "64,512"])[0] == 0
    assert measured == [[20], [64, 512]]


@pytest.mark.parametrize("op", ["bs_access", "bs_rest", "max_naive", "max_fast"])
def test_bench_refuses_size_0_of_an_op_that_needs_an_element(capsys, monkeypatch, op):
    measured = []
    monkeypatch.setattr(costmeter, "measure_schedule", lambda op, sizes: measured.append(sizes) or [])
    code, out, err = run(capsys, ["bench", "--op", op, "--sizes", "4,0"])
    assert (code, out, measured) == (2, "", [])
    assert err == f"error: {op} has no worst-case input of size 0\n"


# the Braun ops' first size over the budget, 2^1048575, is past what --sizes can parse
@pytest.mark.parametrize("op, first", sorted((op, n) for op, n in FIRST_OVER_BUDGET.items() if op[:3] != "bs_"))
def test_bench_refuses_the_first_size_over_the_step_budget_before_measuring(capsys, monkeypatch, op, first):
    measured = []
    monkeypatch.setattr(costmeter, "measure_schedule", lambda op, sizes: measured.append(sizes) or [])
    code, out, err = run(capsys, ["bench", "--op", op, "--sizes", f"1,{first}"])
    assert (code, out, measured) == (2, "", [])
    assert err == f"error: {op} at size {first} is over the meter's budget of 1048576 steps\n"
    assert run(capsys, ["bench", "--op", op, "--sizes", f"1,{first - 1}"])[0] == 0
    assert measured == [[1, first - 1]]


@pytest.mark.parametrize("op, size", [("b_mult", 1024), ("max_naive", 10**18), ("u_plus", 10**9), ("b_add_v2", 10**9)])
def test_bench_refuses_a_size_over_the_budget_at_once(capsys, op, size):
    # b_mult's (n + 1)^2 steps took 1.6 s at 1024; max_naive would make 2^n - 1
    # calls, and the others would build 10^9 nodes first
    start = time.perf_counter()
    code, out, err = run(capsys, ["bench", "--op", op, "--sizes", str(size)])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: {op} at size {size} is over the meter's budget of 1048576 steps\n"


# Each runs in a fresh interpreter and recurses 30,000 or 50,000 frames deep.
def test_bench_sumlist_on_a_long_list():
    proc = run_module("numrep", ["bench", "--op", "sumlist", "--sizes", "30000"])
    assert (proc.returncode, proc.stdout) == (0, "n,steps\n30000,30001\n")


def test_bench_sumlist_beyond_the_recursion_limit_is_one_error_line():
    proc = run_module("numrep", ["bench", "--op", "sumlist", "--sizes", "60000"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("chars", [131073, 1_000_000])
def test_bench_sizes_past_the_argument_cap_are_refused_before_parsing(capsys, chars):
    # int() is quadratic: a million digits take about 8 s to parse
    start = time.perf_counter()
    code, out, err = run(capsys, ["bench", "--op", "bs_access", "--sizes", "1" * chars])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: --sizes is longer than 131072 characters: '" + "1" * 60 + "...'\n")


BENCH, CHECK = ["bench", "--op", "sumlist", "--sizes", "10"], ["check", "--suite", "listlab"]


@pytest.mark.parametrize("argv, loader", [
    (BENCH, NoSource()), (CHECK, NoSource()), (BENCH, Sourceless()), (CHECK, Sourceless()),
], ids=["bench", "check", "bench-sourceless", "check-sourceless"])
def test_meter_without_the_source_is_one_error_line(capsys, monkeypatch, argv, loader):
    monkeypatch.setattr(listlab, "__loader__", loader)
    # twins are built per thread, so a fresh thread reads the source anew
    code, out, err = in_a_fresh_thread(lambda: run(capsys, argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot meter ") and err.count("\n") == 1
    assert err.endswith(": the source of numrep.listlab is not available\n")


# --- check ---------------------------------------------------------------------

@pytest.mark.parametrize("argv, long", [
    (["c" * 3000], "c" * 3000),
    (["c" * 61], "c" * 61),
    (["eval", "--kind", "binary", "--op", "q" * 3000, "Z"], "q" * 3000),
    (["eval", "--kind", "binary", "--op=" + "q" * 3000, "Z"], "q" * 3000),
    (["eval", "--kind", "binary", "--op", "q\\'" * 1000, "Z"], "q\\'" * 1000),
    (["convert", "--kind", "binary", "--from", "int", "--to", "int", "4", "x" * 3000], "x" * 3000),
    (["check", "--suite", "s" * 3000], "s" * 3000),
], ids=["command", "command-61", "eval-op", "eval-op=", "eval-op-quotes", "convert-extra", "check-suite"])
def test_an_argparse_error_quotes_at_most_60_characters_of_an_argument(capsys, monkeypatch, argv, long):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    [error], shown = err.splitlines(), binary._shown(long)
    assert error.startswith("error: ") and (shown in error or repr(shown) in error) and long[:61] not in err
    assert len(err.encode()) < 400


def test_check_detects_broken_addition(capsys, monkeypatch):
    monkeypatch.setattr(binary, "add_v1", lambda x, y: binary.Zero())
    code, out, _ = run(capsys, ["check", "--suite", "binary"])
    assert code == 1
    assert "FAIL" in out
    assert "add agrees with machine addition" in out


# the script commands' arities, and index tokens: in range for short
# sequences mostly, else negative, past the end, huge or no integer
BRAUN_ARITY = {"access": 1, "first": 0, "cons": 1, "rest": 0, "update": 2}
INDEX_TEXTS = st.sampled_from([str(i) for i in range(3)] * 10 + [
    "-1", "9", "x", "1.5", "0x1", "--1", "+2", "1_0", "1" + "0" * 5000, "-" + "9" * 5000, "18446744073709551616"])
ELEMENTS = st.text("abxyz01-", min_size=1, max_size=3)
# the commands of a script's good lines, cons most, so that its sequence grows, and blank lines
BRAUN_WEIGHTS = ["access"] * 4 + ["first"] * 2 + ["cons"] * 6 + ["rest"] * 2 + ["update"] * 3 + [""]


@st.composite
def braun_scripts(draw):
    """Script lines: commands with their operands and blank lines, and at one
    place, in most scripts, one command with an operand too many or too few
    or an unknown command."""
    def line(cmd, arity):
        operands = [draw(INDEX_TEXTS if cmd in ("access", "update") and k == 0 else ELEMENTS) for k in range(arity)]
        return draw(st.sampled_from([" ", "\t "])).join([cmd, *operands])

    lines = [line(cmd, BRAUN_ARITY[cmd]) if cmd else draw(st.sampled_from(["", "  \t"]))
             for cmd in draw(st.lists(st.sampled_from(BRAUN_WEIGHTS), max_size=12))]
    cmd = draw(st.sampled_from([None, None, *BRAUN_ARITY, "swizzle", "ACCESS"]))
    if cmd is not None:
        arity = BRAUN_ARITY.get(cmd)
        arity = 1 if arity is None else arity + draw(st.sampled_from([1] if arity == 0 else [-1, 1]))
        lines.insert(draw(st.integers(0, len(lines))), line(cmd, arity))
    return lines


def braun_case(init, lines):
    """What ``braun --init init`` must do on the script: a Python list's
    outputs up to the first failing line, then exit 2 for a usage error or 1
    for an index out of range or an empty sequence's first or rest."""
    seq, out = init.split(",") if init else [], []

    def case(code=0):
        return Case(["braun", "--init", init], code, stdout="".join(f"{x}\n" for x in out),
                    stdin="".join(f"{line}\n" for line in lines))

    for line in lines:
        if not line.split():
            continue
        cmd, *args = line.split()
        if BRAUN_ARITY.get(cmd) != len(args):
            return case(2)
        if cmd in ("access", "update"):
            try:
                i = int(args[0])
            except ValueError:
                return case(2)
            if not 0 <= i < len(seq):
                return case(1)
        if cmd in ("first", "rest") and not seq:
            return case(1)
        if cmd == "access":
            out.append(seq[i])
        elif cmd == "first":
            out.append(seq[0])
        elif cmd == "cons":
            seq.insert(0, args[0])
        elif cmd == "rest":
            del seq[0]
        elif cmd == "update":
            seq[i] = args[1]
    return case()


@given(st.lists(st.text("abc", max_size=2), max_size=8).map(",".join), braun_scripts())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_braun_meets_the_contract_and_a_list_on_generated_scripts(init, lines):
    limit = sys.get_int_max_str_digits()  # the model reads indices past 4300 digits, as the command does
    sys.set_int_max_str_digits(0)
    try:
        case = braun_case(init, lines)
    finally:
        sys.set_int_max_str_digits(limit)
    assert run_in_process(cli.main, case) == []


# --- convert and eval on generated inputs -------------------------------------------

class Usage(Exception):
    """What the command must refuse with exit 2, as a usage or syntax error."""


def refused(errors, read, *args):
    """read(*args), where an error of the types errors is a Usage."""
    try:
        return read(*args)
    except errors:
        raise Usage from None


def read_literal(text, kind):
    # a ParseError only: a non-canonical literal is a ValueError of the domain, exit 1
    return refused(numio.ParseError, numio.parse_numeral, text, kind)


def outcome(argv, library):
    """The case argv must meet: the library's output with exit 0, or exit 2
    for what it refuses as usage, or exit 1 for a ValueError of the domain."""
    try:
        out = library()
    except Usage:
        return Case(argv, 2, stdout="")
    except ValueError:
        return Case(argv, 1, stdout="")
    return Case(argv, 0, stdout=f"{out}\n")


KIND_NAMES, FORMS = ("unary", "binary", "twoscomp", "cd"), ("int", "literal", "bits")
# (kind, --op) -> the library's function that eval applies
EVAL_FNS = {("unary", "plus"): unary.plus, ("unary", "add"): unary.add, ("unary", "mul"): unary.mult,
            ("binary", "add"): binary.add_v2, ("binary", "add1"): binary.add1, ("binary", "mul"): binary.mult,
            ("twoscomp", "add"): twoscomp.add, ("twoscomp", "add1"): twoscomp.add1,
            ("twoscomp", "neg"): twoscomp.neg, ("twoscomp", "sub"): twoscomp.sub}
EVAL_OPS = sorted({op for _, op in EVAL_FNS})
# ints in the small range and far past it, past unary's height bound of 2**20 both ways
ints = st.integers(-300, 300) | st.integers(2**21, 2**80) | st.integers(-2**80, -2**21)
UNKNOWN_FLAG = "--frobnicate"


@st.composite
def misspelt_name(draw, names):
    """One of names with a letter dropped, one added or inserted, upper-cased or spaced."""
    name = draw(st.sampled_from(names))
    at = draw(st.integers(0, len(name) - 1))
    return draw(st.sampled_from([name[:at] + name[at + 1:], name + "x", name[:at] + "_" + name[at:],
                                 name.upper(), " " + name]))


UNKNOWN_KINDS = st.sampled_from(["Binary", "bin", "", "x" * 100]) | misspelt_name(KIND_NAMES)


@st.composite
def texts(draw, kind, form):
    """An int, a bit string or a literal of kind, as form asks.  unary.mult
    recurses once per unit of its result, so a unary value is at most 24,
    far below the recursion limit; test_eval_too_deep_for_the_recursion_limit
    pins a deeper one's exit 1."""
    v = draw(st.integers(0, 24) if kind == "unary" else st.integers(-2**70, 2**70))
    if form == "int":
        return str(draw(ints))
    if form == "bits":
        return twoscomp.render_bits(twoscomp.from_int(v))
    return numio.print_numeral(numio.KINDS[kind].from_int(v if kind == "twoscomp" else abs(v)))


@st.composite
def mutated(draw, t):
    """t unbalanced, spaced, non-canonical or misspelt, or another kind's or form's text."""
    at, letter = draw(st.integers(0, len(t))), draw(st.sampled_from("ABCDNSZx"))
    how = draw(st.sampled_from(["dropped", "opened", "closed", "spaced", "non-canonical", "misspelt", "other"]))
    return {
        "dropped": lambda: t[:at] + t[at + 1:],  # unbalanced, or a digit or sign gone
        "opened": lambda: t[:at] + "(" + t[at:],
        "closed": lambda: t[:at] + ")" + t[at:],
        "spaced": lambda: "\t" + t[:at] + "  \n" + t[at:],
        "non-canonical": lambda: t.replace("Z", "A(Z)").replace("N", "B(N)"),  # in binary and twoscomp
        "misspelt": lambda: t[:at] + letter + t[at + 1:],
        "other": lambda: draw(texts(draw(st.sampled_from(KIND_NAMES)), draw(st.sampled_from(FORMS)))),
    }[how]()


@given(st.sampled_from(KIND_NAMES), st.sampled_from(FORMS), st.sampled_from(FORMS), st.booleans(),
       st.sampled_from([None] * 8 + ["kind", "from", "to", "flag"]), st.data())
@settings(max_examples=250, derandomize=True, deadline=None)
def test_convert_meets_the_contract_and_the_library_on_generated_inputs(kind, src, dst, whole, usage, data):
    text = data.draw(texts(kind, src))
    text = text if whole else data.draw(mutated(text))
    # and in some examples one usage fault: an unknown kind or form, or an unknown flag
    kind = data.draw(UNKNOWN_KINDS) if usage == "kind" else kind
    src = data.draw(misspelt_name(FORMS)) if usage == "from" else src
    dst = data.draw(misspelt_name(FORMS)) if usage == "to" else dst
    argv = ["convert", "--kind", kind, "--from", src, "--to", dst, text]
    if usage == "flag":
        argv.insert(data.draw(st.sampled_from([1, len(argv)])), UNKNOWN_FLAG)

    def library():
        if kind not in KIND_NAMES or not {src, dst} <= set(FORMS) or usage == "flag":
            raise Usage
        if "bits" in (src, dst) and kind != "twoscomp":
            raise Usage
        row = numio.KINDS[kind]
        value = (row.from_int(refused(ValueError, int, text)) if src == "int"
                 else read_literal(text, kind) if src == "literal" else refused(ValueError, twoscomp.parse_bits, text))
        return (row.to_int(value) if dst == "int" else numio.print_numeral(value) if dst == "literal"
                else twoscomp.render_bits(value))

    assert run_in_process(cli.main, outcome(argv, library)) == []


@given(st.sampled_from(list(EVAL_FNS)), st.sampled_from([None] * 3 + ["operand", "kind", "arity"]),
       st.sampled_from([None] * 8 + ["kind", "op", "flag"]), st.data())
@settings(max_examples=250, derandomize=True, deadline=None)
def test_eval_meets_the_contract_and_the_library_on_generated_inputs(kind_op, fault, usage, data):
    # an op's own operands, or one fault: a mutated operand, another kind or another operand count;
    # and in some examples one usage fault: an unknown kind or op, or an unknown flag
    (kind, op), arity = kind_op, EVAL_FNS[kind_op].__code__.co_argcount
    operands = [data.draw(texts(kind, "literal")) for _ in range(arity)]
    if fault == "operand":
        i = data.draw(st.integers(0, arity - 1))
        operands[i] = data.draw(mutated(operands[i]))
    elif fault == "kind":
        kind = data.draw(st.sampled_from(KIND_NAMES))
    elif fault == "arity":
        operands = (operands * 3)[:data.draw(st.sampled_from([n for n in (1, 2, 3) if n != arity]))]
    kind = data.draw(UNKNOWN_KINDS) if usage == "kind" else kind
    op = data.draw(st.sampled_from(["Add", "", "x" * 100]) | misspelt_name(EVAL_OPS)) if usage == "op" else op
    argv = ["eval", "--kind", kind, "--op", op, *operands]
    if usage == "flag":
        argv.insert(data.draw(st.sampled_from([1, len(argv)])), UNKNOWN_FLAG)
    fn = EVAL_FNS.get((kind, op))

    def library():
        if fn is None or len(operands) != fn.__code__.co_argcount or usage == "flag":
            raise Usage
        return numio.print_numeral(fn(*[read_literal(text, kind) for text in operands]))

    assert run_in_process(cli.main, outcome(argv, library)) == []


# --- bench and check on generated inputs --------------------------------------------

OP_IDS = sorted(costmeter.METERED)
# the largest size of each op measured here: linear ops to 64, b_mult's (n + 1)^2 to 16,
# max_naive's 2^n - 1 to 10, and the logarithmic Braun ops to 10^18
LARGEST = {**dict.fromkeys(OP_IDS, 64), "b_mult": 16, "max_naive": 10,
           **dict.fromkeys(("bs_access", "bs_cons", "bs_rest"), 10**18)}
# the Braun ops' first size over the budget, 2^1048575, is past the argument cap: a 5,000-digit size stands in
FIRST_OVER = {op: str(n) if n < 10**5000 else ONE_AT_5000 for op, n in FIRST_OVER_BUDGET.items()}
MALFORMED = ["x", "1.5", "0x1", ""]
PAST_THE_CAP = ["1" * 131073, "1," * 65537]  # longer than the 131072-character argument cap
LONG_INTS = [ONE_AT_5000, "-" + "9" * 5000]


def quoted(text):
    """text as the CLI's own parse messages quote it: the repr of at most its first 60 characters."""
    return repr(text if len(text) <= 60 else text[:60] + "...")


@st.composite
def sizes_text(draw, op):
    """A --sizes text: sizes op measures, and at one place, in most texts, size
    0, a negative size, the first over the budget, a 5,000-digit size or a
    malformed token; or a text of only a comma or past the cap."""
    whole = draw(st.sampled_from([None] * 8 + [",", *PAST_THE_CAP]))
    if whole is not None:
        return whole
    tokens = [str(n) for n in draw(st.lists(st.integers(1, LARGEST[op]), min_size=1, max_size=3))]
    odd = draw(st.sampled_from([None] * 4 + ["0", "negative", FIRST_OVER[op], *LONG_INTS, *MALFORMED]))
    if odd is not None:
        odd = str(draw(st.integers(-10**20, -1))) if odd == "negative" else odd
        tokens.insert(draw(st.integers(0, len(tokens))), odd)
    return ",".join(tokens)


def refusal(argv, message):
    return Case(argv, 2, stdout="", stderr=f"error: {message}\n")


def bench_case(argv, op, text, flag):
    """What bench must do: print the CSV of the library's own measurement, or
    refuse with exit 2 and argparse's line, the CLI's pinned parse line or
    check_schedule's own message, whichever comes first."""
    if op not in costmeter.METERED:
        return Case(argv, 2, stdout="", stderr=GOLDEN["bench --op frobnicate --sizes 4"][2].replace(
            "'frobnicate'", repr(op)))
    if flag:
        return refusal(argv, f"unrecognized arguments: {UNKNOWN_FLAG}")
    if len(text) > 131072:
        return refusal(argv, f"--sizes is longer than 131072 characters: {quoted(text)}")
    try:
        sizes = [int(token) for token in text.split(",")]
    except ValueError:
        return refusal(argv, f"--sizes must be comma-separated integers: {quoted(text)}")
    try:
        costmeter.check_schedule(op, sizes)
    except ValueError as exc:
        return refusal(argv, str(exc))
    return Case(argv, 0, stdout=numio.csv_emit(costmeter.measure_schedule(op, sizes)), stderr="")


@given(st.sampled_from(OP_IDS), st.sampled_from([None] * 4 + ["op", "flag"]), st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_bench_meets_the_contract_and_the_library_on_generated_inputs(op, fault, data):
    # and one fault at most: a misspelt op id or an unknown flag
    text = data.draw(sizes_text(op))
    if fault == "op":
        op = data.draw(misspelt_name(OP_IDS))
    argv = ["bench", "--op", op, "--sizes", text]
    if fault == "flag":
        argv.insert(data.draw(st.sampled_from([1, len(argv)])), UNKNOWN_FLAG)
    with any_int_digits():  # the model reads and prints sizes past 4300 digits, as the command does
        case = bench_case(argv, op, text, fault == "flag")
    assert run_in_process(cli.main, case) == []


GOOD_SEEDS = st.integers(-2**70, 2**70).map(str) | st.sampled_from(LONG_INTS)
BAD_SEEDS = st.sampled_from(MALFORMED + PAST_THE_CAP)


def check_case(argv, suite, seed, flag):
    """What check must do: print what listlab's checks print when all hold,
    or refuse with exit 2 and argparse's line or the CLI's pinned parse line."""
    if suite not in checks.SUITE_NAMES:
        return refusal(argv, f"argument --suite: invalid choice: {suite!r} "
                             "(choose from 'unary', 'listlab', 'binary', 'twoscomp', 'braun', 'all')")
    if len(seed) > 131072:
        return refusal(argv, f"--seed is longer than 131072 characters: {quoted(seed)}")
    try:
        int(seed)
    except ValueError:
        return refusal(argv, f"--seed is not an integer: {quoted(seed)}")
    if flag:
        return refusal(argv, f"unrecognized arguments: {UNKNOWN_FLAG}")
    return Case(argv, 0, stdout=held(suite), stderr="")


@given(st.sampled_from(["listlab"] * 4 + list(checks.SUITE_NAMES)), st.sampled_from([None] * 3 + ["suite", "seed", "flag"]),
       st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_check_meets_the_contract_and_its_output_on_generated_inputs(suite, fault, data):
    # only listlab runs, to bound the time: another suite gets a seed that is refused
    if fault == "suite":
        suite = data.draw(misspelt_name(checks.SUITE_NAMES))
    runs = suite in checks.SUITE_NAMES and fault != "flag"
    seed = data.draw(BAD_SEEDS if fault == "seed" or runs and suite != "listlab" else GOOD_SEEDS)
    argv = ["check", "--suite", suite, "--seed", seed]
    if fault == "flag":
        argv.insert(data.draw(st.sampled_from([1, len(argv)])), UNKNOWN_FLAG)
    with any_int_digits():
        case = check_case(argv, suite, seed, fault == "flag")
    assert run_in_process(cli.main, case) == []


# --- help and usage text -----------------------------------------------------------

# Captured from a parser that added every subcommand's arguments when it was
# built; each subcommand now adds its own when it first parses, to the same bytes.
# A usage error is one error line, with no usage line.
OPS = ("{b_add1,b_add_v1,b_add_v2,b_mult,bs_access,bs_cons,bs_rest,filter_keep,i_add,"
       "max_fast,max_naive,sumlist,sumlist2,u_add,u_plus}")
BENCH_USAGE = f"""\
usage: numrep bench [-h] --op
                    {OPS}
                    --sizes SIZES
"""
CHECK_USAGE = """\
usage: numrep check [-h] --suite {unary,listlab,binary,twoscomp,braun,all}
                    [--seed SEED]
"""
GOLDEN = {
    "--help": (0, """\
usage: numrep [-h] command ...

Inductive number representations and Braun-tree sequences.

positional arguments:
  command
    convert   convert a value between int, literal and bit-string forms
    eval      apply an arithmetic operation to numeral literals
    braun     run a sequence script (access/first/cons/rest/update) from stdin
    bench     measure step counts on worst-case inputs, CSV to stdout
    check     run property suites; nonzero exit on any failure

options:
  -h, --help  show this help message and exit
""", ""),
    "bench --help": (0, BENCH_USAGE + f"""\

options:
  -h, --help            show this help message and exit
  --op {OPS}
  --sizes SIZES         comma-separated input sizes
""", ""),
    "check --help": (0, CHECK_USAGE + """\

options:
  -h, --help            show this help message and exit
  --suite {unary,listlab,binary,twoscomp,braun,all}
  --seed SEED
""", ""),
    "bench --op frobnicate --sizes 4": (2, "", (
        "error: argument --op: invalid choice: 'frobnicate' (choose from "
        "'b_add1', 'b_add_v1', 'b_add_v2', 'b_mult', 'bs_access', 'bs_cons', 'bs_rest', "
        "'filter_keep', 'i_add', 'max_fast', 'max_naive', 'sumlist', 'sumlist2', 'u_add', 'u_plus')\n"
    )),
    "check": (2, "", "error: the following arguments are required: --suite\n"),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_help_and_usage_text_is_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, argv.split()) == GOLDEN[argv]

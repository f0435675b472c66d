import contextlib
import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import numrep
from numrep import binary, cli, costmeter, listlab, numio


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- convert -------------------------------------------------------------------

def test_convert_int_to_bits(capsys):
    code, out, _ = run(capsys, ["convert", "--kind", "twoscomp", "--from", "int", "--to", "bits", "-5"])
    assert code == 0
    assert out == "...1011\n"


def test_convert_int_to_literal(capsys):
    code, out, _ = run(capsys, ["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"])
    assert code == 0
    assert out == "A(A(B(Z)))\n"


def test_convert_literal_to_int(capsys):
    code, out, _ = run(capsys, ["convert", "--kind", "cd", "--from", "literal", "--to", "int", "C(D(Z))"])
    assert code == 0
    assert out == "5\n"


def test_convert_bits_to_int(capsys):
    code, out, _ = run(capsys, ["convert", "--kind", "twoscomp", "--from", "bits", "--to", "int", "...1011"])
    assert code == 0
    assert out == "-5\n"


def test_convert_bits_requires_twoscomp(capsys):
    code, _, err = run(capsys, ["convert", "--kind", "binary", "--from", "int", "--to", "bits", "4"])
    assert code == 2
    assert "twoscomp" in err


def test_convert_non_canonical_literal_is_domain_failure(capsys):
    code, _, err = run(capsys, ["convert", "--kind", "binary", "--from", "literal", "--to", "int", "A(Z)"])
    assert code == 1
    assert "canonical" in err


def test_convert_syntax_error_is_usage_failure(capsys):
    code, _, err = run(capsys, ["convert", "--kind", "binary", "--from", "literal", "--to", "int", "A(Q)"])
    assert code == 2
    assert "position" in err


def test_convert_negative_unary_is_domain_failure(capsys):
    code, _, _ = run(capsys, ["convert", "--kind", "unary", "--from", "int", "--to", "literal", "-1"])
    assert code == 1


def test_convert_bad_int_is_usage_failure(capsys):
    code, _, _ = run(capsys, ["convert", "--kind", "binary", "--from", "int", "--to", "literal", "four"])
    assert code == 2


@contextlib.contextmanager
def any_int_digits():
    """Lift Python's int/str digit limit (3.10.7 on) for the oracle's own str()."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before 3.10.7")
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


@pytest.mark.parametrize("argv, code, message", [
    (["convert", "--kind", "unary", "--from", "int", "--to", "literal", "-" + "9" * 20000], 1,
     "cannot represent a negative number of 66439 bits as a unary natural"),
    (["convert", "--kind", "binary", "--from", "int", "--to", "literal", "-" + "9" * 20000], 1,
     "cannot represent a negative number of 66439 bits as a binary natural"),
    (["convert", "--kind", "cd", "--from", "int", "--to", "literal", "-" + "9" * 20000], 1,
     "cannot represent a negative number of 66439 bits as an index numeral"),
    (["convert", "--kind", "twoscomp", "--from", "bits", "--to", "int", "..." + "2" * 5000], 2,
     "bit string needs a 0/1 tail digit and bits: '..." + "2" * 57 + "...'"),
    (["convert", "--kind", "twoscomp", "--from", "bits", "--to", "int", "2" * 5000], 2,
     "bit string must start with '...': '" + "2" * 60 + "...'"),
    (["bench", "--op", "sumlist", "--sizes", "9" * 4000], 2,
     "sumlist at size of 13288 bits is over the meter's budget of 1048576 steps"),
    (["bench", "--op", "sumlist", "--sizes", "-" + "9" * 4000], 2,
     "sumlist has no worst-case input of negative size of 13288 bits"),
    # past Python's default limit of 4300 digits
    (["bench", "--op", "sumlist", "--sizes", "1" + "0" * 5000], 2,
     "sumlist at size of 16610 bits is over the meter's budget of 1048576 steps"),
], ids=["unary", "binary", "cd", "bits", "bits-prefix", "bench", "bench-negative", "bench-5001-digits"])
def test_an_error_naming_a_long_number_or_text_is_one_short_line(capsys, argv, code, message):
    assert run(capsys, argv) == (code, "", f"error: {message}\n")
    assert len(f"error: {message}\n".encode()) <= 200


def run_module(module, argv, **kwargs):
    """Run the CLI as ``python -m module`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    kwargs = {"capture_output": True, "text": True, **kwargs}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("module", ["numrep", "numrep.cli"])
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


def tooling_layers_loaded_by(code, stdin=""):
    """Run code in a fresh ``python -S`` with src on sys.path; the tooling layers it loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); {code}; "
            "print(sorted(m for m in ('numrep.checks', 'numrep.costmeter') if m in sys.modules))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


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


def test_an_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        numrep.nope


# --- eval ----------------------------------------------------------------------

def test_eval_unary_plus(capsys):
    code, out, _ = run(capsys, ["eval", "--kind", "unary", "--op", "plus", "S(Z)", "S(Z)"])
    assert code == 0
    assert out == "S(S(Z))\n"


def test_eval_binary_add(capsys):
    code, out, _ = run(capsys, ["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"])
    assert code == 0
    assert out == "A(B(Z))\n"


def test_eval_twoscomp_add(capsys):
    code, out, _ = run(capsys, ["eval", "--kind", "twoscomp", "--op", "add", "N", "N"])
    assert code == 0
    assert out == "A(N)\n"


def test_eval_twoscomp_neg_and_sub(capsys):
    code, out, _ = run(capsys, ["eval", "--kind", "twoscomp", "--op", "neg", "B(A(B(Z)))"])
    assert code == 0
    assert out == "B(B(A(N)))\n"  # neg(5) = -5
    code, out, _ = run(capsys, ["eval", "--kind", "twoscomp", "--op", "sub", "B(B(Z))", "A(B(A(B(Z))))"])
    assert code == 0
    assert out == "B(A(A(N)))\n"  # 3 - 10 = -7


def test_eval_unsupported_combination(capsys):
    code, _, err = run(capsys, ["eval", "--kind", "unary", "--op", "neg", "S(Z)"])
    assert code == 2
    assert "not available" in err


def test_eval_wrong_arity(capsys):
    code, _, _ = run(capsys, ["eval", "--kind", "binary", "--op", "add", "B(Z)"])
    assert code == 2


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

    # the dispatch table holds the function objects, so patch the entry
    monkeypatch.setitem(cli._EVAL_OPS, ("binary", "add"), (exhausted, 2))
    code, out, err = run(capsys, ["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"])
    assert code == 1
    assert out == ""
    assert err == "error: MemoryError\n"


# --- braun ---------------------------------------------------------------------

def test_braun_access(capsys, monkeypatch):
    code, out, _ = run(capsys, ["braun", "--init", "a,b,c"], stdin="access 1\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "b\n"


def test_braun_cons_then_first(capsys, monkeypatch):
    code, out, _ = run(capsys, ["braun"], stdin="cons x\nfirst\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "x\n"


def test_braun_rest_then_access(capsys, monkeypatch):
    code, out, _ = run(capsys, ["braun", "--init", "a,b"], stdin="rest\naccess 0\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "b\n"


def test_braun_update_script(capsys, monkeypatch):
    code, out, _ = run(capsys, ["braun", "--init", "a,b,c"],
                       stdin="update 1 z\naccess 1\naccess 0\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "z\na\n"


def test_braun_access_out_of_range(capsys, monkeypatch):
    code, _, _ = run(capsys, ["braun", "--init", "a"], stdin="access 3\n", monkeypatch=monkeypatch)
    assert code == 1


@pytest.mark.parametrize("line, message", [
    ("access 3", "index 3 out of range for length 1"),
    ("update -1 v", "index -1 out of range for length 1"),
    ("access 1" + "0" * 4999, "index of 16607 bits out of range for length 1"),
    ("update 1" + "0" * 4999 + " v", "index of 16607 bits out of range for length 1"),
], ids=["access", "update", "access-5000-digits", "update-5000-digits"])
def test_braun_index_out_of_range_is_one_short_line(capsys, monkeypatch, line, message):
    # the 5000-digit index is past Python's int/str digit limit
    code, _, err = run(capsys, ["braun", "--init", "a"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert (code, err) == (1, f"error: {message}\n")
    assert len(err.encode()) <= 200


def test_braun_index_not_an_integer_echoes_a_bounded_prefix(capsys, monkeypatch):
    code, _, err = run(capsys, ["braun", "--init", "a"], stdin="access " + "x" * 5000 + "\n", monkeypatch=monkeypatch)
    assert (code, err) == (2, "error: index is not an integer: '" + "x" * 60 + "...'\n")


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


def test_braun_bad_script_line(capsys, monkeypatch):
    code, _, err = run(capsys, ["braun", "--init", "a"], stdin="swizzle 3\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "script" in err


@pytest.mark.parametrize("line, shown", [
    ("swizzle 3", "'swizzle 3'"),
    ("access 1 2", "'access 1 2'"),
    ("swizzle " + "x" * 52, "'swizzle " + "x" * 52 + "'"),  # 60 characters: shown whole
    ("swizzle " + "x" * 5000, "'swizzle " + "x" * 52 + "...'"),
], ids=["short", "wrong-arity", "60-characters", "5008-characters"])
def test_braun_bad_script_line_echoes_a_bounded_prefix(capsys, monkeypatch, line, shown):
    code, out, err = run(capsys, ["braun", "--init", "a"], stdin=line + "\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: bad script line: {shown}\n")
    assert len(err.encode()) <= 200


# --- bench ---------------------------------------------------------------------

def test_bench_sumlist(capsys):
    code, out, _ = run(capsys, ["bench", "--op", "sumlist", "--sizes", "10,100"])
    assert code == 0
    assert out == "n,steps\n10,11\n100,101\n"


def test_bench_max_naive(capsys):
    code, out, _ = run(capsys, ["bench", "--op", "max_naive", "--sizes", "8,10"])
    assert code == 0
    assert out == "n,steps\n8,255\n10,1023\n"


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


# each op's first size whose step bound is over the meter's budget of 2^20 steps;
# the Braun ops' (2^1048575) is past what --sizes can parse
FIRST_OVER_BUDGET = {
    "u_plus": 1048576, "u_add": 1048576, "sumlist": 1048576, "sumlist2": 1048575,
    "filter_keep": 1048576, "max_naive": 21, "max_fast": 1048577, "b_add1": 1048576,
    "b_add_v1": 524288, "b_add_v2": 1048576, "b_mult": 1024, "i_add": 1048576,
}


@pytest.mark.parametrize("op, first", sorted(FIRST_OVER_BUDGET.items()))
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
# Before 3.11 every Python call also takes C stack, which that depth can overflow.
deep_python_frames = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="Python frames use the C stack before 3.11",
)


@deep_python_frames
def test_bench_sumlist_on_a_long_list():
    proc = run_module("numrep", ["bench", "--op", "sumlist", "--sizes", "30000"])
    assert (proc.returncode, proc.stdout) == (0, "n,steps\n30000,30001\n")


@deep_python_frames
def test_bench_sumlist_beyond_the_recursion_limit_is_one_error_line():
    proc = run_module("numrep", ["bench", "--op", "sumlist", "--sizes", "60000"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_bench_access_logarithmic(capsys):
    code, out, _ = run(capsys, ["bench", "--op", "bs_access", "--sizes", "1,1000"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,steps"
    for line in lines[1:]:
        n, steps = map(int, line.split(","))
        assert steps <= 2 * n.bit_length() + 2
    assert out == "n,steps\n1,0\n1000,9\n"


def test_bench_braun_ops_at_a_size_no_n_node_tree_could_hold(capsys):
    code, out, err = run(capsys, ["bench", "--op", "bs_access", "--sizes", "1,1000,1000000000000000000"])
    assert (code, out, err) == (0, "n,steps\n1,0\n1000,9\n1000000000000000000,59\n", "")
    code, out, err = run(capsys, ["bench", "--op", "bs_rest", "--sizes", "1,1000,1000000000000000000"])
    assert (code, out, err) == (0, "n,steps\n1,1\n1000,10\n1000000000000000000,60\n", "")
    # past Python's default limit of 4300 digits; the last index has 16610 bits
    size = "1" + "0" * 5000
    code, out, err = run(capsys, ["bench", "--op", "bs_access", "--sizes", size])
    assert (code, out, err) == (0, f"n,steps\n{size},16609\n", "")


@pytest.mark.parametrize("chars", [131073, 1_000_000])
def test_bench_sizes_past_the_argument_cap_are_refused_before_parsing(capsys, chars):
    # int() is quadratic: a million digits take about 8 s to parse
    start = time.perf_counter()
    code, out, err = run(capsys, ["bench", "--op", "bs_access", "--sizes", "1" * chars])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: --sizes is longer than 131072 characters: '" + "1" * 60 + "...'\n")


def test_bench_unknown_op_is_usage_error(capsys):
    code, _, _ = run(capsys, ["bench", "--op", "frobnicate", "--sizes", "4"])
    assert code == 2


def test_bench_bad_sizes(capsys):
    code, _, _ = run(capsys, ["bench", "--op", "sumlist", "--sizes", "ten"])
    assert code == 2


def test_bench_bad_sizes_echo_a_bounded_prefix(capsys):
    code, out, err = run(capsys, ["bench", "--op", "sumlist", "--sizes", "1," + "x" * 5000])
    assert (code, out) == (2, "")
    assert err == "error: --sizes must be comma-separated integers: '1," + "x" * 58 + "...'\n"
    assert len(err.encode()) <= 200


def test_bench_negative_size_is_usage_error(capsys):
    code, out, err = run(capsys, ["bench", "--op", "sumlist", "--sizes=-3,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class NoSource:
    def get_data(self, path):
        raise FileNotFoundError(path)


@pytest.mark.parametrize("argv", [
    ["bench", "--op", "sumlist", "--sizes", "10"],
    ["check", "--suite", "listlab"],
], ids=["bench", "check"])
def test_meter_without_the_source_is_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(listlab, "__loader__", NoSource())
    results = []
    # twins are built per thread, so a fresh thread reads the source anew
    thread = threading.Thread(target=lambda: results.append(run(capsys, argv)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    [(code, out, err)] = results
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot meter ") and err.count("\n") == 1
    assert err.endswith(": the source of numrep.listlab is not available\n")


# --- check ---------------------------------------------------------------------

def test_check_all_passes(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "all"])
    assert code == 0
    assert "FAIL" not in out
    assert "properties held" in out


def test_check_braun_reports_shape_oracle_persistence(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "braun"])
    assert code == 0
    assert "shape" in out
    assert "list operations" in out
    assert "persistence" in out.lower()


def test_check_seed_flag(capsys):
    code, _, _ = run(capsys, ["check", "--suite", "listlab", "--seed", "99"])
    assert code == 0


def test_check_detects_broken_addition(capsys, monkeypatch):
    monkeypatch.setattr(binary, "add_v1", lambda x, y: binary.Zero())
    code, out, _ = run(capsys, ["check", "--suite", "binary"])
    assert code == 1
    assert "FAIL" in out
    assert "add agrees with machine addition" in out


# --- top-level usage -------------------------------------------------------------

def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_missing_required_flag(capsys):
    assert cli.main(["convert", "--kind", "binary", "--from", "int", "4"]) == 2


# --- help and usage text -----------------------------------------------------------

# Captured from a parser that added every subcommand's arguments when it was
# built; bench and check add theirs when they first parse, to the same bytes.
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
    "bench --op frobnicate --sizes 4": (2, "", BENCH_USAGE + (
        "numrep bench: error: argument --op: invalid choice: 'frobnicate' (choose from "
        "'b_add1', 'b_add_v1', 'b_add_v2', 'b_mult', 'bs_access', 'bs_cons', 'bs_rest', "
        "'filter_keep', 'i_add', 'max_fast', 'max_naive', 'sumlist', 'sumlist2', 'u_add', 'u_plus')\n"
    )),
    "check": (2, "", CHECK_USAGE + "numrep check: error: the following arguments are required: --suite\n"),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_help_and_usage_text_is_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, argv.split()) == GOLDEN[argv]

"""The pair-sweeping property checks name the pair a wrong operation fails on.

Each case replaces one operation with a mutant that is wrong on one fixed
tuple of operands only, then runs the checks that sweep operand pairs.
An "off" mutant returns the next value there (canonical, wrong value); a
"padded" one returns the right value with a redundant innermost digit (not
canonical).  The checks that catch it must report that pair, the oracle
and canonicality checks with the operation's name; an oracle check that
meets the padded value must name it as not canonical, and the other
checks that can call the operation must still hold.  The two's-complement
round trip names the value a wrong ``from_int`` fails on the same way.
``numrep check`` must print every check's row whatever a check does.
"""

import random

import pytest

from numrep import binary, checks, cli, costmeter, twoscomp
from numrep.binary import Even, Odd, Zero
from numrep.twoscomp import MinusOne

# the pair-sweeping checks that can call each module's operations
SWEEPS = {
    binary: [checks._b_add_oracle, checks._b_add_structural, checks._b_mult_oracle,
             checks._b_canonical, checks._t_conservative],
    twoscomp: [checks._t_arith_oracle, checks._t_conservative, checks._t_canonical],
}


@pytest.fixture(autouse=True)
def real_meter_rows():
    """The meter makes each op's row on first use, from the operation its layer
    holds then: make them all before a test swaps one for a mutant, so that
    the cost checks meter the real operations whichever test runs first."""
    dict(costmeter.METERED)


def padded(v):
    """v with one redundant digit inside its innermost: same value, not canonical."""
    tv = type(v)
    if tv is Zero:
        return Even(Zero())
    if tv is MinusOne:
        return Odd(MinusOne())
    return tv(padded(v.rest))


MUTANTS = {"off": twoscomp.add1, "padded": padded}

CASES = [
    (binary, "add_v2", (37, 41), "off", {
        "_b_add_oracle": "add_v2(37,41) != 78",
        "_b_add_structural": "addition algorithms disagree structurally at (37,41)",
        "_t_conservative": "signed add deviates from binary add at (37,41)",
    }),
    (binary, "add_v2", (37, 41), "padded", {
        "_b_add_oracle": "add_v2(37,41) is not canonical",
        "_b_add_structural": "addition algorithms disagree structurally at (37,41)",
        "_b_canonical": "add_v2(37,41) is not canonical",
        "_t_conservative": "signed add deviates from binary add at (37,41)",
    }),
    (binary, "add_v1", (37, 41), "off", {
        "_b_add_oracle": "add_v1(37,41) != 78",
        "_b_add_structural": "addition algorithms disagree structurally at (37,41)",
    }),
    (binary, "add_v1", (37, 41), "padded", {
        "_b_add_oracle": "add_v1(37,41) is not canonical",
        "_b_add_structural": "addition algorithms disagree structurally at (37,41)",
        "_b_canonical": "add_v1(37,41) is not canonical",
    }),
    (binary, "mult", (6, 7), "off", {"_b_mult_oracle": "mult(6,7) != 42"}),
    (binary, "mult", (6, 7), "padded", {
        "_b_mult_oracle": "mult(6,7) is not canonical",
        "_b_canonical": "mult(6,7) is not canonical",
    }),
    # sub(a, b) is add(a, neg(b)), and the arithmetic oracle checks add(a, b)
    # before sub(a, -b) only when b <= 0; the conservative check needs b >= 0
    (twoscomp, "add", (9, 0), "off", {
        "_t_arith_oracle": "add(9,0) != 9",
        "_t_conservative": "signed add deviates from binary add at (9,0)",
    }),
    (twoscomp, "add", (9, 0), "padded", {
        "_t_arith_oracle": "add(9,0) is not canonical",
        "_t_conservative": "signed add deviates from binary add at (9,0)",
        "_t_canonical": "add(9,0) is not canonical",
    }),
    (twoscomp, "sub", (5, 3), "off", {"_t_arith_oracle": "sub(5,3) != 2"}),
    (twoscomp, "sub", (5, 3), "padded", {
        "_t_arith_oracle": "sub(5,3) is not canonical",
        "_t_canonical": "sub(5,3) is not canonical",
    }),
    # sub negates its second operand, so the neg rows come first
    (twoscomp, "neg", (7,), "off", {"_t_arith_oracle": "neg(7) != -7"}),
    (twoscomp, "neg", (7,), "padded", {
        "_t_arith_oracle": "neg(7) is not canonical",
        "_t_canonical": "neg(7) is not canonical",
    }),
]


def outcome(check):
    return check(random.Random(checks.DEFAULT_SEED))


def report(suite, rows):
    """The lines ``numrep check`` prints for rows of (check name, failure detail or None)."""
    return "".join(f"PASS  {suite}: {name}\n" if detail is None else f"FAIL  {suite}: {name}  [{detail}]\n"
                   for name, detail in rows)


@pytest.mark.parametrize(
    "module, name, operands, mutant, caught", CASES,
    ids=[f"{m.__name__.split('.')[-1]}.{n}-{k}" for m, n, _, k, _ in CASES])
def test_checks_name_the_pair_a_wrong_operation_fails_on(monkeypatch, capsys, module, name, operands, mutant,
                                                         caught):
    real, wrong = getattr(module, name), MUTANTS[mutant]
    at = tuple(twoscomp.from_int(v) for v in operands)

    def wrong_at_operands(*args):
        result = real(*args)
        return wrong(result) if args == at else result

    monkeypatch.setattr(module, name, wrong_at_operands)
    got = {check.__name__: outcome(check) for check in SWEEPS[module]}
    assert got == {check.__name__: caught.get(check.__name__) for check in SWEEPS[module]}

    # the module's own suite prints every row, the failing ones named
    suite = module.__name__.split(".")[-1]
    rows = [(check_name, caught.get(fn.__name__)) for check_name, fn in checks.SUITES[suite]]
    held = sum(detail is None for _, detail in rows)
    assert cli.main(["check", "--suite", suite]) == 1
    assert capsys.readouterr() == (report(suite, rows) + f"{held}/{len(rows)} properties held\n", "")


@pytest.mark.parametrize("mutant, detail", [("off", "from_int(5) != 5"), ("padded", "from_int(5) is not canonical")])
def test_the_roundtrip_check_names_the_value_a_wrong_from_int_fails_on(monkeypatch, mutant, detail):
    real, wrong = twoscomp.from_int, MUTANTS[mutant]
    monkeypatch.setattr(twoscomp, "from_int", lambda n: wrong(real(n)) if n == 5 else real(n))
    assert outcome(checks._t_roundtrip) == detail


def test_a_check_that_raises_is_one_failed_row(monkeypatch, capsys):
    # a plain RuntimeError too: only the meter's SourceUnavailable stops the run
    for error in (ZeroDivisionError, RuntimeError):
        def raises(rng):
            raise error("x" * 100)

        monkeypatch.setitem(checks.SUITES, "binary", [
            (check_name, raises if fn is checks._b_add_oracle else fn)
            for check_name, fn in checks.SUITES["binary"]])
        assert cli.main(["check", "--suite", "all"]) == 1
        out, err = capsys.readouterr()
        detail = f"{error.__name__}: '" + "x" * 60 + "...'"
        expected = "".join(
            report(suite, [(check_name, detail if fn is raises else None) for check_name, fn in entries])
            for suite, entries in checks.SUITES.items())
        assert (out, err) == (expected + "30/31 properties held\n", "")
        assert len(out.splitlines()) == 32 and out.count("FAIL") == 1
        monkeypatch.undo()


@pytest.mark.parametrize("suite", ["nope", "All", "x" * 100, None])
def test_an_unknown_suite_is_a_key_error_that_lists_the_suites(suite):
    with pytest.raises(KeyError) as caught:
        checks.run_suite(suite)
    shown = repr(suite) if len(repr(suite)) <= 60 else repr(suite)[:60] + "..."
    assert caught.value.args == (f"unknown suite: {shown}; one of unary, listlab, binary, twoscomp, braun, all",)

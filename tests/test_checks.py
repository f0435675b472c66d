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
Each check that reads its rows through a reader names the operation and
operands a mutant is wrong on; every check but five ends in its only
return, of reader calls; and every check draws from its generator what
it drew before.  ``numrep check`` must print every check's row whatever
a check does.
"""

import ast
import random
from pathlib import Path

import pytest

from numrep import binary, braun, checks, cli, costmeter, listlab, twoscomp, unary
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
        "_b_add_structural": "add_v1(37,41) != add_v2(37,41)",
        "_t_conservative": "add(37,41) != add_v2(37,41)",
    }),
    (binary, "add_v2", (37, 41), "padded", {
        "_b_add_oracle": "add_v2(37,41) is not canonical",
        "_b_add_structural": "add_v1(37,41) != add_v2(37,41)",
        "_b_canonical": "add_v2(37,41) is not canonical",
        "_t_conservative": "add(37,41) != add_v2(37,41)",
    }),
    (binary, "add_v1", (37, 41), "off", {
        "_b_add_oracle": "add_v1(37,41) != 78",
        "_b_add_structural": "add_v1(37,41) != add_v2(37,41)",
    }),
    (binary, "add_v1", (37, 41), "padded", {
        "_b_add_oracle": "add_v1(37,41) is not canonical",
        "_b_add_structural": "add_v1(37,41) != add_v2(37,41)",
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
        "_t_conservative": "add(9,0) != add_v2(9,0)",
    }),
    (twoscomp, "add", (9, 0), "padded", {
        "_t_arith_oracle": "add(9,0) is not canonical",
        "_t_conservative": "add(9,0) != add_v2(9,0)",
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


def one_more_step(result):
    value, steps = result
    return value, steps + 1


def swapped(s):
    """s with its root's subtrees swapped: the same elements, no Braun tree past length 1."""
    t = s.tree
    return braun.BraunSeq(s.length, braun.Node(t.elem, t.right, t.left))


# (check, module, operation, the leading arguments it is wrong at, what it
# returns there instead, the check's detail); measured is wrong at an op id
READS = [
    (checks._u_roundtrip, unary, "from_int", (5,), unary.Succ, "from_int(5) != 5"),
    (checks._u_oracle, unary, "plus", (unary.from_int(3), unary.from_int(4)), unary.Succ, "plus(3,4) != 7"),
    (checks._u_left_identity, unary, "add", (unary.Zero(), unary.from_int(5)), unary.Succ, "add(0,5) != 5"),
    (checks._l_accumulator, listlab, "sumh", ([7, -52], -59), lambda v: v + 1, "sumh([7, -52],-59) != -104"),
    (checks._l_sum_variants, listlab, "sumlist2", ([],), lambda v: v + 1, "sumlist2([]) != 0"),
    (checks._l_max_agreement, listlab, "max_fast", ([11, 29],), lambda v: v + 1, "max_fast([11, 29]) != 29"),
    (checks._b_size_law, binary, "size", (binary.from_int(5),), lambda v: v + 1, "size(5) != 3"),
    (checks._t_bit_table, twoscomp, "render_bits", (twoscomp.from_int(-3),), lambda v: v + "1",
     "render_bits(-3) != ...101"),
    (checks._u_step_counts, costmeter, "measured", ("u_add",), one_more_step,
     "u_add(26,0) took 2 steps, expected 1"),
    (checks._l_step_counts, costmeter, "measured", ("max_fast",), one_more_step,
     "max_fast(range(1, 9)) took 9 steps, expected 8"),
    (checks._b_add1_cost, costmeter, "measured", ("b_add1",), one_more_step,
     "b_add1(0) took 2 steps, expected 1"),
    (checks._br_access_cost, costmeter, "measured", ("bs_access",), one_more_step,
     "bs_access(from_list(range(1)),0) took 1 steps, expected 0"),
    # the structure reader names both sides; a padded result has the right value
    (checks._u_laws, unary, "plus", (unary.from_int(3), unary.from_int(4)), unary.Succ, "plus(3,4) != plus(4,3)"),
    (checks._b_shapes, binary, "from_int", (2,), binary.add1, "from_int(2) != Even(rest=Odd(rest=Zero()))"),
    (checks._b_add_structural, binary, "add_v1", (binary.from_int(5), binary.from_int(9)), padded,
     "add_v1(5,9) != add_v2(5,9)"),
    (checks._t_conservative, binary, "add_v2", (binary.from_int(5), binary.from_int(9)), binary.add1,
     "add(5,9) != add_v2(5,9)"),
    # sub1(add1(4)) calls sub1 at 5 before the rows of 5 do
    (checks._t_involutions, twoscomp, "sub1", (twoscomp.from_int(5),), twoscomp.add1, "sub1(add1(4)) != 4"),
    (checks._br_shape, braun, "cons", (7,), swapped, "cons(7,from_list(<length 1>)) is not a Braun tree"),
    (checks._br_list_oracle, braun, "first", (), lambda v: v + 1, "first(cons(-7,from_list(<length 0>))) != -7"),
    (checks._br_depth_law, braun, "depth", (), lambda v: v + 1, "depth(cons(1,...)) != 1"),
    (checks._br_index_bijection, braun, "cd_from_int", (5,), braun.IxOdd, "cd_from_int(5) != 5"),
]


@pytest.mark.parametrize("check, module, name, at, wrong, detail", READS, ids=[r[0].__name__ for r in READS])
def test_the_readers_name_the_operation_and_operands_a_mutant_fails_on(monkeypatch, check, module, name, at, wrong,
                                                                        detail):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real(*args)) if args[:len(at)] == at else real(*args))
    assert outcome(check) == detail


# the readers, and the checks that keep code of their own: a bound read per
# schedule or per op, a property of a whole set, one comparison after a run of steps
READERS = {"_oracle", "_costs", "_not_canonical", "_identical"}
OWN_CODE = {"_b_add_cost_bound", "_t_render_injective", "_br_persistence", "_br_deque_cost", "_br_index_bijection"}


def test_every_other_check_ends_in_its_only_return_of_readers():
    def returns(fn):  # fn's own, not those of the functions it defines
        inner = {id(n) for d in fn.body for f in ast.walk(d) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        return [n for n in ast.walk(fn) if isinstance(n, ast.Return) and id(n) not in inner]

    def reads(e):
        calls = e.values if isinstance(e, ast.BoolOp) and isinstance(e.op, ast.Or) else [e]
        return all(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id in READERS for c in calls)

    defs = {node.name: node for node in ast.parse(Path(checks.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef)}
    names = {fn.__name__ for entries in checks.SUITES.values() for _, fn in entries}
    reading = {name for name in names
               if returns(defs[name]) == defs[name].body[-1:] and reads(defs[name].body[-1].value)}
    assert names - reading == OWN_CODE


# the generator's next random() after each check that draws, at seed 12345;
# a check that draws nothing leaves the generator's first value next
DRAWN = {
    "_u_laws": 0.27329108920633216, "_u_step_counts": 0.0031849641925417727,
    "_l_accumulator": 0.629843999951162, "_l_sum_variants": 0.5648506638998789,
    "_l_max_agreement": 0.14994097639406978, "_b_add_oracle": 0.4025896334493596,
    "_b_add_structural": 0.4025896334493596, "_b_mult_oracle": 0.33706124321247555,
    "_b_canonical": 0.2608339010749946, "_t_arith_oracle": 0.5635243608790397,
    "_t_conservative": 0.5024084995031307, "_t_canonical": 0.2608339010749946,
    "_br_shape": 0.9126869152586609, "_br_list_oracle": 0.9135904352381923,
    "_br_persistence": 0.31322206101922623, "_br_access_cost": 0.3684116894884757,
}


def test_each_check_draws_what_it_drew_before():
    # what a check draws decides which pairs `check --seed S` tests
    untouched = random.Random(checks.DEFAULT_SEED).random()
    fns = [fn for entries in checks.SUITES.values() for _, fn in entries]
    assert set(DRAWN) <= {fn.__name__ for fn in fns}
    for fn in fns:
        rng = random.Random(checks.DEFAULT_SEED)
        assert fn(rng) is None
        assert (fn.__name__, rng.random()) == (fn.__name__, DRAWN.get(fn.__name__, untouched))


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

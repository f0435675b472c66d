"""Acceptance gate: every criterion at its stated range, zero tolerance
unless a bound says otherwise.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the one pass/fail line per criterion.
"""

import io
import random
import sys

import pytest

from numrep import binary, braun, cli, costmeter, listlab, twoscomp, unary
from numrep.binary import Even, Odd, Zero
from numrep.twoscomp import MinusOne

SEED = 20260809


def report(num, desc, ok, detail=""):
    # written to the real stdout so the line shows even under capture
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
          + (f"  ({detail})" if detail else ""),
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc} {detail}"


def nat_int(v):
    # local denotation oracle for binary naturals
    n = shift = 0
    while isinstance(v, (Even, Odd)):
        if isinstance(v, Odd):
            n |= 1 << shift
        shift += 1
        v = v.rest
    assert isinstance(v, Zero)
    return n


def tc_int(v):
    # local denotation oracle for two's-complement values
    n = shift = 0
    while isinstance(v, (Even, Odd)):
        if isinstance(v, Odd):
            n |= 1 << shift
        shift += 1
        v = v.rest
    if isinstance(v, MinusOne):
        n -= 1 << shift
    else:
        assert isinstance(v, Zero)
    return n


def cd_digits(i):
    count = 0
    while i:
        i = (i - 1) // 2 if i % 2 else (i - 2) // 2
        count += 1
    return count


@pytest.fixture(scope="module")
def binary_sweep():
    """One pass over all pairs 0..512, plain and metered, both algorithms."""
    vals = [binary.from_int(n) for n in range(513)]
    sizes = [binary.size(v) for v in vals]
    agg = {
        "oracle": True, "canonical": True, "structural": True,
        "transparent": True, "bound_v1": True, "bound_v2": True,
        "worst_v1": 0.0, "worst_v2": 0.0,
    }
    for a in range(513):
        x = vals[a]
        for b in range(513):
            y = vals[b]
            p1 = binary.add_v1(x, y)
            p2 = binary.add_v2(x, y)
            m1, s1 = costmeter.measured("b_add_v1", x, y)
            m2, s2 = costmeter.measured("b_add_v2", x, y)
            if nat_int(p1) != a + b or nat_int(p2) != a + b:
                agg["oracle"] = False
            if not (binary.is_canonical(p1) and binary.is_canonical(p2)):
                agg["canonical"] = False
            if p1 != p2:
                agg["structural"] = False
            if m1 != p1 or m2 != p2:
                agg["transparent"] = False
            base = max(sizes[a], sizes[b]) + 1
            agg["worst_v1"] = max(agg["worst_v1"], s1 / base)
            agg["worst_v2"] = max(agg["worst_v2"], s2 / base)
            if s1 > costmeter.K_ADD_V1 * base:
                agg["bound_v1"] = False
            if s2 > costmeter.K_ADD_V2 * base:
                agg["bound_v2"] = False
    return agg


@pytest.fixture(scope="module")
def signed_sweep():
    """All pairs -256..256 for add and sub, all values for neg."""
    vals = {n: twoscomp.from_int(n) for n in range(-256, 257)}
    agg = {"add": True, "sub": True, "neg": True, "canonical": True}
    for a in range(-256, 257):
        x = vals[a]
        nx = twoscomp.neg(x)
        if tc_int(nx) != -a:
            agg["neg"] = False
        if not twoscomp.is_canonical(nx):
            agg["canonical"] = False
        for b in range(-256, 257):
            s = twoscomp.add(x, vals[b])
            d = twoscomp.sub(x, vals[b])
            if tc_int(s) != a + b:
                agg["add"] = False
            if tc_int(d) != a - b:
                agg["sub"] = False
            if not (twoscomp.is_canonical(s) and twoscomp.is_canonical(d)):
                agg["canonical"] = False
    return agg


# --- criterion 1: oracle arithmetic equivalence --------------------------------

def test_c1_oracle_arithmetic(binary_sweep, signed_sweep):
    ok = True
    for a in range(61):
        x = unary.from_int(a)
        for b in range(61):
            y = unary.from_int(b)
            if unary.to_int(unary.plus(x, y)) != a + b or unary.to_int(unary.add(x, y)) != a + b:
                ok = False
    mult_ok = True
    for a in range(129):
        x = binary.from_int(a)
        for b in range(129):
            if nat_int(binary.mult(x, binary.from_int(b))) != a * b:
                mult_ok = False
    ok = ok and mult_ok and binary_sweep["oracle"] and \
        signed_sweep["add"] and signed_sweep["sub"] and signed_sweep["neg"]
    report(1, "oracle arithmetic equivalence (unary 0..60, binary add 0..512, "
              "mult 0..128, signed -256..256)", ok)


# --- criterion 2: literal fixtures ----------------------------------------------

def test_c2_literal_fixtures():
    nat_shapes = {
        0: Zero(),
        1: Odd(Zero()),
        2: Even(Odd(Zero())),
        3: Odd(Odd(Zero())),
        4: Even(Even(Odd(Zero()))),
    }
    int_shapes = {
        -1: MinusOne(),
        -2: Even(MinusOne()),
        -3: Odd(Even(MinusOne())),
        -4: Even(Even(MinusOne())),
        -5: Odd(Odd(Even(MinusOne()))),
    }
    bit_table = {
        3: "...011", 2: "...010", 1: "...01", 0: "...0",
        -1: "...11", -2: "...10", -3: "...101", -4: "...100", -5: "...1011",
    }
    ok = all(binary.from_int(n) == v for n, v in nat_shapes.items())
    ok = ok and all(twoscomp.from_int(n) == v for n, v in int_shapes.items())
    ok = ok and all(twoscomp.render_bits(twoscomp.from_int(n)) == s
                    for n, s in bit_table.items())
    report(2, "fixed value shapes and bit strings reproduced byte-exactly", ok)


# --- criterion 3: canonicality ----------------------------------------------------

def test_c3_canonicality(binary_sweep, signed_sweep):
    ok = binary_sweep["canonical"] and signed_sweep["canonical"]
    mult_ok = all(
        binary.is_canonical(binary.mult(binary.from_int(a), binary.from_int(b)))
        for a in range(0, 129, 3) for b in range(0, 129, 3)
    )
    from numrep.numio import CanonicalityError, parse_numeral
    rejects = False
    try:
        parse_numeral("A(Z)", "binary")
    except CanonicalityError:
        try:
            parse_numeral("B(N)", "twoscomp")
        except CanonicalityError:
            rejects = True
    report(3, "canonicality closure on all outputs; parser rejects A(Z) and B(N)",
           ok and mult_ok and rejects)


# --- criterion 4: size recurrence ---------------------------------------------------

def test_c4_size_recurrence():
    ok = all(binary.size(binary.from_int(n)) == n.bit_length() for n in range(1, 4097))
    report(4, "representation size is floor(log2 n) + 1 for 1 <= n <= 4096", ok)


# --- criterion 5: Braun laws ---------------------------------------------------------

def shape_count(node):
    if node is None:
        return 0
    lc = shape_count(node.left)
    rc = shape_count(node.right)
    if not rc <= lc <= rc + 1:
        raise AssertionError("shape invariant violated")
    return lc + rc + 1


def test_c5_braun_laws():
    rng = random.Random(SEED)
    ok = True
    for _ in range(40):
        xs = [rng.randint(0, 10 ** 6) for _ in range(rng.randint(0, 500))]
        s = braun.from_list(xs)
        ok = ok and shape_count(s.tree) == len(xs) and braun.to_list(s) == xs
        t = braun.cons(-1, s)
        ok = ok and shape_count(t.tree) == len(xs) + 1
        ok = ok and braun.to_list(t) == [-1] + xs
        ok = ok and braun.to_list(braun.rest(t)) == xs
        if xs:
            i = rng.randrange(len(xs))
            u = braun.update(s, i, -7)
            ok = ok and shape_count(u.tree) == len(xs)
            ok = ok and braun.to_list(u) == xs[:i] + [-7] + xs[i + 1:]
            r = braun.rest(s)
            ok = ok and shape_count(r.tree) == len(xs) - 1
            ok = ok and braun.to_list(r) == xs[1:]
        ok = ok and braun.to_list(s) == xs  # persistence after everything above

    depth_ok = True
    s = braun.EMPTY
    for n in range(1, 4097):
        s = braun.cons(n, s)
        if braun.depth(s) != n.bit_length():
            depth_ok = False
            break

    access_ok = True
    seq = braun.from_list(range(1000))
    for i in range(1000):
        _, steps = costmeter.measured("bs_access", seq, i)
        if steps > cd_digits(i):
            access_ok = False
    big = braun.from_list(range(4096))
    for i in (0, 1, 2047, 4095):
        _, steps = costmeter.measured("bs_access", big, i)
        if steps > cd_digits(i):
            access_ok = False

    report(5, "Braun shape/oracle/persistence to length 500, depth law to 4096, "
              "access visits within digit count", ok and depth_ok and access_ok)


# --- criterion 6: cost separations ---------------------------------------------------

def test_c6_cost_separations():
    ok = True
    for n in (8, 12, 16):
        xs = list(range(1, n + 1))
        ok = ok and costmeter.measured("max_naive", xs)[1] == 2 ** n - 1
        ok = ok and costmeter.measured("max_fast", xs)[1] == n
    for n in (10, 100, 1000):
        ok = ok and costmeter.measured("sumlist", list(range(n)))[1] == n + 1
        ok = ok and costmeter.measured(
            "filter_keep", lambda v: v % 2 == 0, list(range(n)))[1] == n + 1
    report(6, "exact cost separations: naive max 2^n - 1 vs fast n; "
              "sum and filter n + 1", ok)


# --- criterion 7: linear-time binary addition ----------------------------------------

def test_c7_linear_addition_bound(binary_sweep):
    # the steps read here are the metered adds', which return the plain adds' sums on every pair
    assert binary_sweep["transparent"], "a metered addition differs from the plain one"
    ok = binary_sweep["bound_v1"] and binary_sweep["bound_v2"]
    ok = ok and costmeter.K_ADD_V1 == 2 and costmeter.K_ADD_V2 == 1
    report(7, "both addition variants within K*(max digits + 1) over all pairs "
              "to 512", ok,
           detail=f"K_v1={costmeter.K_ADD_V1} worst={binary_sweep['worst_v1']:.3f}, "
                  f"K_v2={costmeter.K_ADD_V2} worst={binary_sweep['worst_v2']:.3f}")


# --- criterion 8: accumulator lemma ---------------------------------------------------

def test_c8_accumulator_lemma():
    rng = random.Random(SEED)
    ok = True
    for _ in range(500):
        xs = [rng.randint(-100, 100) for _ in range(rng.randint(0, 50))]
        acc = rng.randint(-100, 100)
        if listlab.sumh(xs, acc) != acc + listlab.sumlist(xs):
            ok = False
        if listlab.sumh(xs, acc) != acc + sum(xs):
            ok = False
    report(8, "sumh(xs, acc) = acc + sumlist(xs) on 500 seeded random pairs", ok)


# --- criterion 9: equivalence of addition algorithms ----------------------------------

def test_c9_addition_equivalence(binary_sweep):
    ok = binary_sweep["structural"]
    embed_ok = True
    for a in range(257):
        x = binary.from_int(a)
        for b in range(257):
            y = binary.from_int(b)
            if twoscomp.add(x, y) != binary.add_v2(x, y):
                embed_ok = False
    report(9, "add_v1 structurally equals add_v2 to 512; signed add restricts "
              "to the binary algorithm on nonnegatives", ok and embed_ok)


# --- criterion 10: CLI contract --------------------------------------------------------

def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_c10_cli_contract(capsys, monkeypatch):
    checks_list = []

    def expect(argv, want_out, stdin=None):
        code, out = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        checks_list.append(code == 0 and out == want_out)

    expect(["convert", "--kind", "twoscomp", "--from", "int", "--to", "bits", "-5"],
           "...1011\n")
    expect(["convert", "--kind", "binary", "--from", "int", "--to", "literal", "4"],
           "A(A(B(Z)))\n")
    expect(["convert", "--kind", "cd", "--from", "literal", "--to", "int", "C(D(Z))"],
           "5\n")
    expect(["eval", "--kind", "unary", "--op", "plus", "S(Z)", "S(Z)"],
           "S(S(Z))\n")
    expect(["eval", "--kind", "binary", "--op", "add", "B(Z)", "B(Z)"],
           "A(B(Z))\n")
    expect(["eval", "--kind", "twoscomp", "--op", "add", "N", "N"],
           "A(N)\n")
    expect(["braun", "--init", "a,b,c"], "b\n", stdin="access 1\n")
    expect(["braun"], "x\n", stdin="cons x\nfirst\n")
    expect(["braun", "--init", "a,b"], "b\n", stdin="rest\naccess 0\n")
    expect(["bench", "--op", "sumlist", "--sizes", "10,100"],
           "n,steps\n10,11\n100,101\n")
    expect(["bench", "--op", "max_naive", "--sizes", "8,10"],
           "n,steps\n8,255\n10,1023\n")

    code, out = run_cli(capsys, ["bench", "--op", "bs_access", "--sizes", "1,1000"])
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    checks_list.append(code == 0 and all(
        int(steps) <= 2 * int(n).bit_length() + 2 for n, steps in rows))

    code, out = run_cli(capsys, ["check", "--suite", "all"])
    checks_list.append(code == 0)

    code, out = run_cli(capsys, ["check", "--suite", "braun"])
    checks_list.append(code == 0 and "shape" in out and "persistence" in out)

    monkeypatch.setattr(binary, "add_v1", lambda x, y: Zero())
    code, out = run_cli(capsys, ["check", "--suite", "binary"])
    monkeypatch.undo()
    checks_list.append(code == 1 and "FAIL" in out
                       and "add agrees with machine addition" in out)

    report(10, "CLI examples byte-exact with correct exit codes "
               f"({len(checks_list)} invocations)", all(checks_list),
           detail="" if all(checks_list) else f"failures at {[i for i, v in enumerate(checks_list) if not v]}")

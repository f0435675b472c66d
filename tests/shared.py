"""What more than one test needs: references, foreign fixtures and runners.

The references build, walk and check values through the public classes
of ``numrep``, so that none runs the code it checks: no name here reads
a private attribute of a numrep module (``tests/test_shared.py`` checks
this).  The module holds no test, so pytest collects nothing from it.
"""

import copy
import importlib.util
import marshal
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from numrep import binary, braun, twoscomp, unary

# --- foreign values -----------------------------------------------------------


class Digit(binary.Even):
    """A subclass of a digit class that adds no field: no numeral kind has it."""

    __slots__ = ()


class Layer(unary.Succ):
    """A subclass of Succ: unary.to_int reads it as a foreign value."""

    __slots__ = ()


# the wrappers and tails a chain is drawn from: every numeral class and two
# foreign subclasses, over the nullary numerals, a one-layer numeral,
# foreign values, an unhashable list, braun's records and a foreign digit
WRAPPERS = [unary.Succ, binary.Even, binary.Odd, braun.IxOdd, braun.IxEven, Digit, Layer]
TAILS = [unary.Zero(), unary.Succ(unary.Zero()), binary.Zero(), twoscomp.MinusOne(), braun.IxZero(),
         0, 5, 2.5, "Z", "x", None, [1], braun.Node(1, None, None), braun.EMPTY, Digit(binary.Zero())]


def wrap(classes, tail):
    """tail wrapped in classes, the first outermost, by calling each class."""
    for cls in reversed(classes):
        tail = cls(tail)
    return tail


# --- references ---------------------------------------------------------------

def binary_digits(n):
    """The digit classes of the natural n, least significant first: the
    remainder of n by 2 picks Odd or Even, and n // 2 goes on."""
    digits = []
    while n:
        digits.append(binary.Odd if n % 2 else binary.Even)
        n //= 2
    return digits


def index_digits(i):
    """The index digit classes of i, outermost first: an odd i takes IxOdd
    and goes on with (i - 1) / 2, an even one IxEven and (i - 2) / 2."""
    digits = []
    while i:
        digits.append(braun.IxOdd if i % 2 else braun.IxEven)
        i = (i - 1) // 2 if i % 2 else (i - 2) // 2
    return digits


def unary_layers(x):
    """The Succ layers of x over Zero, counted one node a step; type-exact,
    and any other node raises as unary.to_int does."""
    n = 0
    while type(x) is unary.Succ:
        n, x = n + 1, x.pred
    if type(x) is not unary.Zero:
        raise TypeError(f"not a unary natural: {x!r}")
    return n


# each layer's rules checked at every digit, not only the innermost: no
# banned (digit, child) pair anywhere, and the chain ends in a tail
RULES = {
    binary: ({(binary.Even, binary.Zero)}, {binary.Zero}),
    twoscomp: ({(binary.Even, binary.Zero), (binary.Odd, twoscomp.MinusOne)}, {binary.Zero, twoscomp.MinusOne}),
}


def canonical_by_the_rules(layer, v):
    banned, tails = RULES[layer]
    while type(v) in (binary.Even, binary.Odd):
        if (type(v), type(v.rest)) in banned:
            return False
        v = v.rest
    return type(v) in tails


# The class-call smart constructors that binary's even and odd and
# twoscomp's odd replaced, kept as references for the digits the shipped
# ones build without calling a class; twoscomp's even is binary's.
def reference_even(x):
    return x if type(x) is binary.Zero else binary.Even(x)


def reference_binary_odd(x):
    return binary.Odd(x)


def reference_twoscomp_odd(x):
    return x if type(x) is twoscomp.MinusOne else binary.Odd(x)


def comprehension_from_list(xs):
    """from_list with each row built by a comprehension over the row: the reference."""
    items = list(xs)
    below = []
    for k in reversed(range(len(items).bit_length())):
        w = 1 << k
        below += [None] * (2 * w - len(below))
        row = items[w - 1 : 2 * w - 1]
        below = [braun.Node(x, below[j], below[j + w]) for j, x in enumerate(row)]
    return braun.BraunSeq(len(items), below[0] if below else None)


def outcome(f, *args):
    """f's result, or its exception's type, message and position, if any."""
    try:
        return "value", f(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def assert_indistinguishable(built, want):
    """A value from a builder that skips the class call against its class-built twin."""
    assert built == want and want == built
    assert hash(built) == hash(want)
    assert repr(built) == repr(want)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(built, protocol) == pickle.dumps(want, protocol)
        again = pickle.loads(pickle.dumps(built, protocol))
        assert type(again) is type(want) and again == want
    again = copy.deepcopy(built)
    assert type(again) is type(want) and again == want
    for value in (built, want):
        for name in type(want).__match_args__:
            with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
                delattr(value, name)
    assert built == want


def assert_builds_as(build, reference, x):
    """build(x) is the digit reference(x) builds, over x itself."""
    got, want = build(x), reference(x)
    if want is x:
        assert got is x  # a collapse returns its argument
    else:
        assert got.rest is x
    assert_indistinguishable(got, want)


def assert_the_same_with_the_class_call_references(results):
    """results() gives the same with every smart constructor patched to its
    class-call reference as without.  Each side runs in a fresh thread, so
    that the meter's twins see the module's globals of that side."""
    shipped = in_a_fresh_thread(results)
    with pytest.MonkeyPatch.context() as patch:
        for module in (binary, twoscomp):  # twoscomp imports binary's even by name
            patch.setattr(module, "even", reference_even)
        patch.setattr(binary, "odd", reference_binary_odd)
        patch.setattr(twoscomp, "odd", reference_twoscomp_odd)
        assert in_a_fresh_thread(results) == shipped


# --- the meter ----------------------------------------------------------------

# each op's first size whose step bound is over the budget of 2^20 steps
FIRST_OVER_BUDGET = {
    "u_plus": 1048576, "u_add": 1048576, "sumlist": 1048576, "sumlist2": 1048575,
    "filter_keep": 1048576, "max_naive": 21, "max_fast": 1048577, "b_add1": 1048576,
    "b_add_v1": 524288, "b_add_v2": 1048576, "b_mult": 1024, "i_add": 1048576,
    "bs_access": 2**1048575, "bs_cons": 2**1048575, "bs_rest": 2**1048575,
}


class NoSource:
    def get_data(self, path):
        raise FileNotFoundError(path)


class Sourceless:
    def get_data(self, path):
        # what a SourcelessFileLoader's get_data reads: the module's .pyc
        code = compile(Path(path).read_bytes(), path, "exec")
        return importlib.util.MAGIC_NUMBER + bytes(12) + marshal.dumps(code)


# --- runners ------------------------------------------------------------------

def in_a_fresh_thread(call):
    """call()'s result, or the exception it raised, in a thread that has
    built no twins yet."""
    out = []

    def run():
        try:
            out.append(call())
        except Exception as exc:
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


def run_python(code, stdin=""):
    """Run code in a fresh ``python -S`` with this checkout's src first on
    sys.path and no PYTHONPATH; the completed process, its output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
                          input=stdin, capture_output=True, text=True, env=env, timeout=120)

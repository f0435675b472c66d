"""arith: literal in, literal out.

Each operation parses its operands with ``numio.parse_numeral``, applies
one arithmetic operation and prints the result with
``numio.print_numeral``.  Outside the timed span the printed text is
compared with the literal of the Python ``int`` result, and the value
with ``to_int``.

The mix is fixed per block of 60 operations, so every block does the same
kinds of work: binary ``add_v2`` 30 %, ``add_v1`` 15 %, ``mult`` 10 %;
two's-complement ``add``/``sub``/``neg`` 35 % with mixed signs; unary
``plus``/``add`` 10 % on values up to 300.  Digit counts are log-uniform
over 1..256 (1..64 for ``mult``), stratified over the pool so that two
seeds draw nearly the same sizes.  256 digits stays below the recursion
ceilings, which start near 1000 digits for ``add_v2``.
"""

from __future__ import annotations

import math
import random
from time import perf_counter_ns

from record import Workload

# (layer, function, operand count, ops per block)
BLOCK = (
    ("binary", "add_v2", 2, 18),
    ("binary", "add_v1", 2, 9),
    ("binary", "mult", 2, 6),
    ("twoscomp", "add", 2, 7),
    ("twoscomp", "sub", 2, 7),
    ("twoscomp", "neg", 1, 7),
    ("unary", "plus", 2, 3),
    ("unary", "add", 2, 3),
)
POOL_BLOCKS = 100
MAX_DIGITS = 256
MULT_DIGITS = 64
UNARY_MAX = 300

_PYTHON = {
    ("binary", "add_v2"): lambda a, b: a + b,
    ("binary", "add_v1"): lambda a, b: a + b,
    ("binary", "mult"): lambda a, b: a * b,
    ("twoscomp", "add"): lambda a, b: a + b,
    ("twoscomp", "sub"): lambda a, b: a - b,
    ("twoscomp", "neg"): lambda a: -a,
    ("unary", "plus"): lambda a, b: a + b,
    ("unary", "add"): lambda a, b: a + b,
}


def literal(kind: str, v: int) -> str:
    """Canonical literal of v, written without the library."""
    if kind == "unary":
        return "S(" * v + "Z" + ")" * v
    letters = []
    while v not in (0, -1):
        letters.append("B" if v & 1 else "A")
        v >>= 1
    tail = "Z" if v == 0 else "N"
    return "(".join(letters + [tail]) + ")" * len(letters)


def log_uniform_sizes(rng: random.Random, count: int, top: int):
    """count digit counts in 1..top, one per equal slice of log(size)."""
    sizes = [min(top, int(math.exp((k + rng.random()) / count * math.log(top + 1))))
             for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _operand(rng: random.Random, layer: str, digits: int) -> int:
    if layer == "unary":
        return rng.randint(0, UNARY_MAX)
    v = (1 << (digits - 1)) | rng.getrandbits(digits - 1) if digits > 1 else 1
    if layer == "twoscomp" and rng.random() < 0.5:
        v = -v
    return v


class Arith(Workload):
    name = "arith"
    warmup_blocks = 2
    trace_blocks = POOL_BLOCKS

    def __init__(self, numrep, seed: int) -> None:
        rng = random.Random(seed)
        self.lib = numrep
        per_kind = []
        for layer, fn, arity, count in BLOCK:
            top = MULT_DIGITS if fn == "mult" else MAX_DIGITS
            specs = []
            for digits in log_uniform_sizes(rng, count * POOL_BLOCKS, top):
                args = [_operand(rng, layer, digits) for _ in range(arity)]
                want = _PYTHON[layer, fn](*args)
                texts = tuple(literal(layer, a) for a in args)
                specs.append((layer, fn, texts, want, literal(layer, want)))
            per_kind.append((count, specs))
        self.blocks = []
        for b in range(POOL_BLOCKS):
            block = [s for count, specs in per_kind for s in specs[b * count:(b + 1) * count]]
            rng.shuffle(block)
            self.blocks.append(block)
        self.next = 0

    def _functions(self, tracer):
        lib = self.lib
        parse, show = lib.numio.parse_numeral, lib.numio.print_numeral
        ops = {(layer, fn): getattr(getattr(lib, layer), fn) for layer, fn, _, _ in BLOCK}
        if tracer is None:
            return parse, show, ops
        return (tracer.wrap("numio.parse_numeral", parse),
                tracer.wrap("numio.print_numeral", show),
                {key: tracer.wrap(".".join(key), f) for key, f in ops.items()})

    def block(self, rec, tracer=None) -> None:
        parse, show, ops = self._functions(tracer)
        to_int = {"binary": self.lib.binary.to_int, "twoscomp": self.lib.twoscomp.to_int,
                  "unary": self.lib.unary.to_int}
        canonical = {"binary": self.lib.binary.is_canonical,
                     "twoscomp": self.lib.twoscomp.is_canonical,
                     "unary": lambda v: True}

        def apply(layer, fn, texts):
            value = ops[layer, fn](*[parse(t, layer) for t in texts])
            return value, show(value)

        specs = self.blocks[self.next]
        self.next = (self.next + 1) % POOL_BLOCKS
        for layer, fn, texts, want, want_text in specs:
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    value, text = apply(layer, fn, texts)
                else:
                    value, text = tracer.root(apply, layer, fn, texts)
            except Exception as exc:  # any library error is a failed operation
                rec.add(perf_counter_ns() - t0)
                rec.fail(f"{layer}.{fn} raised {exc!r}")
                continue
            rec.add(perf_counter_ns() - t0)
            if text != want_text or not canonical[layer](value) or to_int[layer](value) != want:
                rec.fail(f"{layer}.{fn}{texts!r} gave {text!r}, expected {want_text!r}")

"""Command-line front door: convert, eval, braun, bench, check.

``bench`` and ``check`` import :mod:`numrep.costmeter` and
:mod:`numrep.checks` when they are parsed or run, so a ``convert``,
``eval`` or ``braun`` process compiles neither.

Exit codes: 0 on success, 1 for domain or property failures (bad index,
negative unary value, non-canonical literal, failed check suite), for
inputs too deep for the recursion limit or too large for memory, for a
meter that cannot read a module's source (``bench``, ``check``) and for
a reader that closed stdout early, 2 for usage and syntax errors
(bad flags, malformed literals or numbers, unknown operation ids).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import binary, braun, numio, twoscomp, unary
from .numio import ParseError


class _UsageError(Exception):
    pass


_FROM_INT = {
    "unary": unary.from_int,
    "binary": binary.from_int,
    "twoscomp": twoscomp.from_int,
    "cd": braun.cd_from_int,
}
_TO_INT = {
    "unary": unary.to_int,
    "binary": binary.to_int,
    "twoscomp": twoscomp.to_int,
    "cd": braun.cd_to_int,
}

# (kind, op) -> operation and arity
_EVAL_OPS = {
    ("unary", "plus"): (unary.plus, 2),
    ("unary", "add"): (unary.add, 2),
    ("unary", "mul"): (unary.mult, 2),
    ("binary", "add"): (binary.add_v2, 2),
    ("binary", "add1"): (binary.add1, 1),
    ("binary", "mul"): (binary.mult, 2),
    ("twoscomp", "add"): (twoscomp.add, 2),
    ("twoscomp", "add1"): (twoscomp.add1, 1),
    ("twoscomp", "neg"): (twoscomp.neg, 1),
    ("twoscomp", "sub"): (twoscomp.sub, 2),
}


def _shown(text: str) -> str:
    """text as an error message quotes it: its first 60 characters at most."""
    return text if len(text) <= 60 else text[:60] + "..."


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} is not an integer: {_shown(text)!r}") from None


def _any_int_digits(handler):
    """The handler, run with Python's int/str digit limit lifted.

    Python (3.10.7 on) refuses int/str conversions past 4300 digits, which
    bounds the quadratic cost of parsing untrusted text; here the text is
    the user's own argument (at most 128 KiB on Linux) or script line.
    """

    def lifted(args) -> int:
        if not hasattr(sys, "set_int_max_str_digits"):
            return handler(args)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return handler(args)
        finally:
            sys.set_int_max_str_digits(limit)

    return lifted


@_any_int_digits
def _cmd_convert(args) -> int:
    if ("bits" in (args.src, args.dst)) and args.kind != "twoscomp":
        raise _UsageError("bit-string form is only available for --kind twoscomp")
    if args.src == "int":
        value = _FROM_INT[args.kind](_parse_int(args.value, "value"))
    elif args.src == "literal":
        value = numio.parse_numeral(args.value, args.kind)
    else:
        try:
            value = twoscomp.parse_bits(args.value)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if args.dst == "int":
        print(_TO_INT[args.kind](value))
    elif args.dst == "literal":
        print(numio.print_numeral(value))
    else:
        print(twoscomp.render_bits(value))
    return 0


def _cmd_eval(args) -> int:
    try:
        fn, arity = _EVAL_OPS[(args.kind, args.op)]
    except KeyError:
        raise _UsageError(
            f"operation {args.op!r} is not available for kind {args.kind!r}"
        ) from None
    if len(args.operands) != arity:
        raise _UsageError(f"{args.op} takes {arity} operand(s), got {len(args.operands)}")
    operands = [numio.parse_numeral(text, args.kind) for text in args.operands]
    print(numio.print_numeral(fn(*operands)))
    return 0


@_any_int_digits
def _cmd_braun(args) -> int:
    seq = braun.from_list(args.init.split(",")) if args.init else braun.EMPTY
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        cmd, rest_args = parts[0], parts[1:]
        if cmd == "access" and len(rest_args) == 1:
            print(braun.access(seq, _parse_int(rest_args[0], "index")))
        elif cmd == "first" and not rest_args:
            print(braun.first(seq))
        elif cmd == "cons" and len(rest_args) == 1:
            seq = braun.cons(rest_args[0], seq)
        elif cmd == "rest" and not rest_args:
            seq = braun.rest(seq)
        elif cmd == "update" and len(rest_args) == 2:
            seq = braun.update(seq, _parse_int(rest_args[0], "index"), rest_args[1])
        else:
            raise _UsageError(f"bad script line: {_shown(line)!r}")
    return 0


# max_naive makes 2^n - 1 metered calls, about 0.4 us each (Python 3.11.7,
# 2-core Xeon): n = 20 takes about half a second, and every size above doubles it
_MAX_NAIVE_SIZE = 20


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers: {args.sizes!r}") from None
    if any(n < 0 for n in sizes):
        raise _UsageError(f"--sizes must not be negative: {args.sizes!r}")
    if args.op == "max_naive" and max(sizes) > _MAX_NAIVE_SIZE:
        raise _UsageError(
            f"--sizes above {_MAX_NAIVE_SIZE} would take 2^n - 1 max_naive calls: {args.sizes!r}"
        )
    from . import costmeter

    rows = costmeter.measure_schedule(args.op, sizes)
    sys.stdout.write(numio.csv_emit(rows))
    return 0


def _cmd_check(args) -> int:
    from . import checks

    results = checks.run_suite(args.suite, seed=args.seed)
    failed = 0
    for r in results:
        if r.passed:
            print(f"PASS  {r.suite}: {r.name}")
        else:
            failed += 1
            print(f"FAIL  {r.suite}: {r.name}  [{r.detail}]")
    print(f"{len(results) - failed}/{len(results)} properties held")
    return 1 if failed else 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that can add its arguments when it first parses.

    ``add_arguments(parser)`` runs once, before the first parse, so a
    subcommand whose choices come from a layer imports that layer only
    when the subcommand is used (``bench --help`` included).
    """

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _bench_arguments(n: argparse.ArgumentParser) -> None:
    from . import costmeter

    n.add_argument("--op", required=True, choices=sorted(costmeter.METERED))
    n.add_argument("--sizes", required=True, help="comma-separated input sizes")


def _check_arguments(k: argparse.ArgumentParser) -> None:
    from . import checks

    k.add_argument("--suite", required=True, choices=checks.SUITE_NAMES)
    k.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="numrep",
        description="Inductive number representations and Braun-tree sequences.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command",
                           parser_class=_SubcommandParser)

    c = sub.add_parser("convert", help="convert a value between int, literal and bit-string forms")
    c.add_argument("--kind", required=True, choices=numio.KINDS)
    c.add_argument("--from", dest="src", required=True, choices=("int", "literal", "bits"))
    c.add_argument("--to", dest="dst", required=True, choices=("int", "literal", "bits"))
    c.add_argument("value")
    c.set_defaults(handler=_cmd_convert)

    e = sub.add_parser("eval", help="apply an arithmetic operation to numeral literals")
    e.add_argument("--kind", required=True, choices=numio.KINDS)
    e.add_argument("--op", required=True, choices=("plus", "add", "add1", "mul", "neg", "sub"))
    e.add_argument("operands", nargs="+")
    e.set_defaults(handler=_cmd_eval)

    b = sub.add_parser("braun", help="run a sequence script (access/first/cons/rest/update) from stdin")
    b.add_argument("--init", default="", help="comma-separated initial elements (default: empty)")
    b.set_defaults(handler=_cmd_braun)

    n = sub.add_parser("bench", help="measure step counts on worst-case inputs, CSV to stdout",
                       add_arguments=_bench_arguments)
    n.set_defaults(handler=_cmd_bench)

    k = sub.add_parser("check", help="run property suites; nonzero exit on any failure",
                       add_arguments=_check_arguments)
    k.set_defaults(handler=_cmd_check)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (_UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a RecursionError, or a meter that cannot read a
        # module's source; a MemoryError usually has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that closed the pipe early shows here
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: give it somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()

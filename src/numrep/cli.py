"""Command-line front door: convert, eval, braun, bench, check.

``bench`` and ``check`` import :mod:`numrep.costmeter` and
:mod:`numrep.checks` when they are parsed or run, so a ``convert``,
``eval`` or ``braun`` process compiles neither.  Each numeral kind's
conversions come from its row in :data:`numrep.numio.KINDS`.  Every
command reads and prints decimals past Python's 4300-digit int/str
limit: :func:`main` lifts it while a command runs and restores it after.

Exit codes: 0 on success, 1 for domain or property failures (bad index,
negative unary value, non-canonical literal, failed check suite), for
inputs too deep for the recursion limit or too large for memory, for a
meter that cannot read a module's source (``bench``, ``check``) and for
a reader that closed stdout early, 2 for usage and syntax errors
(bad flags, malformed literals or numbers, numbers or a ``--sizes``
longer than 131072 characters, unknown operation ids, ``bench`` sizes
with no worst-case input or over the meter's step budget).  An error is
one line, which names a number past 100 digits by its bit length and
quotes at most 60 characters of a text.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import binary, braun, numio, twoscomp, unary
from .numio import ParseError, _shown


class _UsageError(Exception):
    pass


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


# Linux's cap on one command-line argument; a longer script token or
# --sizes is refused before int(), whose time is quadratic in the digit count
_MAX_INT_CHARS = 131072


def _capped(text: str, what: str) -> str:
    if len(text) > _MAX_INT_CHARS:
        raise _UsageError(f"{what} is longer than {_MAX_INT_CHARS} characters: {_shown(text)!r}")
    return text


def _parse_int(text: str, what: str) -> int:
    try:
        return int(_capped(text, what))
    except ValueError:
        raise _UsageError(f"{what} is not an integer: {_shown(text)!r}") from None


def _cmd_convert(args) -> int:
    if ("bits" in (args.src, args.dst)) and args.kind != "twoscomp":
        raise _UsageError("bit-string form is only available for --kind twoscomp")
    kind = numio.KINDS[args.kind]
    if args.src == "int":
        value = kind.from_int(_parse_int(args.value, "value"))
    elif args.src == "literal":
        value = numio.parse_numeral(args.value, args.kind)
    else:
        try:
            value = twoscomp.parse_bits(args.value)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if args.dst == "int":
        print(kind.to_int(value))
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


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in _capped(args.sizes, "--sizes").split(",")]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers: {_shown(args.sizes)!r}") from None
    from . import costmeter

    try:  # a refused schedule is a usage error, where a failed measurement exits 1
        costmeter.check_schedule(args.op, sizes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
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
    # Python (3.10.7 on) refuses int/str conversions past 4300 digits, which
    # bounds the quadratic cost of parsing untrusted text; here the text is
    # the user's own, and _capped bounds what int() reads to 131072 characters
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (_UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a RecursionError, or a meter that cannot read a
        # module's source; a MemoryError usually has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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

"""Command-line front door: convert, eval, braun, bench, check.

Each command is one row of a table: its help line, its handler, and the
function that adds its arguments to its parser, which runs when the
command is first parsed.  Every parser is one ``argparse`` subclass.

A command loads only the layers it runs.  This module imports only
:mod:`numrep.binary`, and that is all ``--help`` loads.  ``convert`` and
``eval`` import :mod:`numrep.numio` when they are parsed, and their
kind's layer (:mod:`numrep.braun` for ``cd``) when they first use the
kind; ``braun`` loads :mod:`numrep.braun` alone.  ``bench`` imports
:mod:`numrep.costmeter`, and ``check`` :mod:`numrep.checks` as well,
when they are parsed or run; neither loads a layer of its own.
``bench`` loads its op id's layer once its schedule is accepted, and
``check`` each suite's layer as the suite runs.  Each numeral
kind's conversions come from its row in :data:`numrep.numio.KINDS`, and
``eval`` finds each operation's function by name in that row's layer,
the one its literals load.  Every
command reads and prints decimals past Python's 4300-digit int/str
limit: :func:`main` lifts it while it parses and runs a command, and
restores it after.

Exit codes: 0 on success, 1 for domain or property failures (bad index,
negative unary value or one over unary's height bound of 2**20,
non-canonical literal, failed check suite), for
inputs too deep for the recursion limit or too large for memory, for a
meter that cannot read a module's source (``bench``, ``check``) and for
a reader that closed stdout early, 2 for usage and syntax errors
(bad flags, malformed literals or numbers, numbers, a ``--seed`` or a
``--sizes`` longer than 131072 characters, unknown operation ids,
``bench`` sizes with no worst-case input or over the meter's step
budget).  An error is one ``error:`` line, which names a number past 100
digits by its bit length and quotes at most 60 characters of a text.
argparse's own errors are such a line too, with no usage line, and quote
an argument, or the value after an option's ``=``, the same way.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Optional, Sequence

from .binary import _shown


class _UsageError(Exception):
    pass


# (kind, op) -> the function that runs it, found in the layer of the kind's
# row in numio.KINDS, the layer its literals load; rows in --op's order
_EVAL_OPS = {
    ("unary", "plus"): "plus",
    ("unary", "add"): "add",
    ("binary", "add"): "add_v2",
    ("twoscomp", "add"): "add",
    ("binary", "add1"): "add1",
    ("twoscomp", "add1"): "add1",
    ("unary", "mul"): "mult",
    ("binary", "mul"): "mult",
    ("twoscomp", "neg"): "neg",
    ("twoscomp", "sub"): "sub",
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


def _literal(text: str, kind: str):
    """The numeral of a literal argument; a syntax error in it is a usage error."""
    from . import numio

    try:
        return numio.parse_numeral(text, kind)
    except numio.ParseError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_convert(args) -> int:
    from . import numio

    if ("bits" in (args.src, args.dst)) and args.kind != "twoscomp":
        raise _UsageError("bit-string form is only available for --kind twoscomp")
    kind = numio.KINDS[args.kind]
    if args.src == "int":
        value = kind.from_int(_parse_int(args.value, "value"))
    elif args.src == "literal":
        value = _literal(args.value, args.kind)
    else:
        from . import twoscomp

        try:
            value = twoscomp.parse_bits(args.value)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if args.dst == "int":
        print(kind.to_int(value))
    elif args.dst == "literal":
        print(numio.print_numeral(value))
    else:
        from . import twoscomp

        print(twoscomp.render_bits(value))
    return 0


def _cmd_eval(args) -> int:
    from . import numio

    try:
        name = _EVAL_OPS[(args.kind, args.op)]
    except KeyError:
        raise _UsageError(
            f"operation {args.op!r} is not available for kind {args.kind!r}"
        ) from None
    fn = getattr(numio.KINDS[args.kind].layer, name)
    arity = fn.__code__.co_argcount
    if len(args.operands) != arity:
        raise _UsageError(f"{args.op} takes {arity} operand(s), got {len(args.operands)}")
    operands = [_literal(text, args.kind) for text in args.operands]
    print(numio.print_numeral(fn(*operands)))
    return 0


def _cmd_braun(args) -> int:
    from . import braun

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
    from . import numio

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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors quoting arguments by :func:`_shown`.

    :meth:`error` raises :class:`_UsageError`, which :func:`main` prints
    as one ``error:`` line, where argparse would print a usage line too.
    argparse echoes an offending argument whole, as its ``repr`` or as
    is; each parse records the texts it reads, and :meth:`error` shortens
    each over 60 characters, and each such value after a ``=``.  A parser
    made with ``add_arguments`` runs ``add_arguments(parser)`` once,
    before its first parse, so a subcommand whose choices come from a
    layer imports that layer only when the subcommand is used (``bench
    --help`` included); the subcommands' parsers are of this class too.
    """

    _texts: Sequence[str] = ()

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments
        # argparse's private test for an argument that is a value, not an
        # option, though it starts with "-": set to Python 3.13's, a "-" then
        # a digit, so that 3.11 too reads "--sizes -1,2" as the value "-1,2"
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        self._texts = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        texts = {t for arg in self._texts for t in (arg, arg.partition("=")[2]) if len(t) > 60}
        for text in sorted(texts, key=len, reverse=True):
            message = message.replace(repr(text), repr(_shown(text))).replace(text, _shown(text))
        raise _UsageError(message)


def _convert_arguments(c: argparse.ArgumentParser) -> None:
    from . import numio

    c.add_argument("--kind", required=True, choices=numio.KINDS)
    c.add_argument("--from", dest="src", required=True, choices=("int", "literal", "bits"))
    c.add_argument("--to", dest="dst", required=True, choices=("int", "literal", "bits"))
    c.add_argument("value")


def _eval_arguments(e: argparse.ArgumentParser) -> None:
    from . import numio

    e.add_argument("--kind", required=True, choices=numio.KINDS)
    e.add_argument("--op", required=True, choices=tuple(dict.fromkeys(op for _, op in _EVAL_OPS)))
    e.add_argument("operands", nargs="+")


def _braun_arguments(b: argparse.ArgumentParser) -> None:
    b.add_argument("--init", default="", help="comma-separated initial elements (default: empty)")


def _bench_arguments(n: argparse.ArgumentParser) -> None:
    from . import costmeter

    n.add_argument("--op", required=True, choices=sorted(costmeter.METERED))
    n.add_argument("--sizes", required=True, help="comma-separated input sizes")


def _seed(text: str) -> int:
    return _parse_int(text, "--seed")


def _check_arguments(k: argparse.ArgumentParser) -> None:
    from . import checks

    k.add_argument("--suite", required=True, choices=checks.SUITE_NAMES)
    k.add_argument("--seed", type=_seed, default=checks.DEFAULT_SEED)


# command -> its help line, its handler and what adds its arguments, in --help's order
_COMMANDS = {
    "convert": ("convert a value between int, literal and bit-string forms", _cmd_convert, _convert_arguments),
    "eval": ("apply an arithmetic operation to numeral literals", _cmd_eval, _eval_arguments),
    "braun": ("run a sequence script (access/first/cons/rest/update) from stdin", _cmd_braun, _braun_arguments),
    "bench": ("measure step counts on worst-case inputs, CSV to stdout", _cmd_bench, _bench_arguments),
    "check": ("run property suites; nonzero exit on any failure", _cmd_check, _check_arguments),
}


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="numrep",
        description="Inductive number representations and Braun-tree sequences.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_line, handler, add_arguments) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, add_arguments=add_arguments).set_defaults(handler=handler)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    # Python refuses int/str conversions past 4300 digits, which
    # bounds the quadratic cost of parsing untrusted text; here the text is
    # the user's own, and _capped bounds what int() reads to 131072
    # characters, while the arguments are parsed (--seed) and a command runs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:  # a usage error, argparse's own or --seed's, goes to the clause below
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return exc.code if isinstance(exc.code, int) else 2
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, RuntimeError, MemoryError) as exc:
        # RuntimeError: a RecursionError, or a meter that cannot read a
        # module's source; a MemoryError usually has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
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

"""The one reading of a counted module's source: step twins and clause tables.

:func:`derive` parses a module's source once, and from that one parse
gives each named top-level function two things; :func:`twins`, which
the meter builds with, gives the first alone, for every top-level
function.  Source that does not parse, such as the bytecode a module
shipped without its ``.py`` file reads as, has no functions.

Its *twin*: the function's ``def`` compiled again from its source with
``_steps[0] += 1`` first in the body that repeats (the function's own, or
that of its top-level ``while`` or ``for`` if it descends in a loop).
Run in a namespace that holds ``_steps``, it defines the counting copy
that :mod:`numrep.costmeter` measures with.

Its *clause table*, in source order.  A clause is each ``return`` and
each ``raise`` but the ``TypeError`` fallthrough, in the function's
body or its ``if`` blocks (no counted function returns from a loop), with

* its label, such as ``add_plus1[Zero,Odd]``: the class each parameter
  was found to be by the type tests that held on the clause's path
  (``tx is C``, where an assignment bound ``tx = type(x)``), ``_`` for
  an untested one;
* the other tests that held on its path, as ``ast.unparse`` text.  A
  test that failed is not listed: the clauses are tried in order, as a
  definition's equations are;
* the statement itself, as ``ast.unparse`` text;
* the calls to the named functions made on its path, with their
  arguments, in source order: those in the statement, in the earlier
  statements of each block it is in, and in every test evaluated on
  the way, held or failed (``max_naive``'s last clause makes its double
  call, one in the failed guard ``x > max_naive(rest)``).

The twins hold code, and the tables hold text and line numbers, so no
parse tree outlives :func:`derive` or :func:`twins`.
"""

from __future__ import annotations

import ast
import collections
import contextlib
from typing import Any, Collection, Dict, List, Optional, Tuple

# line: the statement's line in the file; label, statement: text; tests,
# calls: tuples of text
Clause = collections.namedtuple("Clause", "line label tests statement calls")
Derived = collections.namedtuple("Derived", "twin clauses")


def read(module: Dict[str, Any]) -> bytes:
    """The source of the module with these globals, as its loader reads it,
    or b"" without a loader, a file or a readable source.  Read as bytes: a
    loader's get_source imports tokenize to decode it."""
    with contextlib.suppress(AttributeError, KeyError, OSError):
        return module["__loader__"].get_data(module["__file__"])
    return b""


def twins(source: bytes, filename: str) -> Dict[Tuple[int, str], Any]:
    """(line, name) of each top-level function of source -> its twin, a
    code object compiled under filename."""
    return {(node.lineno, node.name): _twin(node, filename) for node in _defs(source)}


def derive(source: bytes, filename: str, names: Collection[str]) -> Dict[Tuple[int, str], Derived]:
    """(line, name) of each top-level function of source named in names ->
    its twin, as :func:`twins` gives it, and its clauses; the calls a
    clause lists are those to functions named in names."""
    # the clauses are read first: _twin adds its count to node
    return {(node.lineno, node.name): Derived(clauses=_clauses(node, names), twin=_twin(node, filename))
            for node in _defs(source) if node.name in names}


def _defs(source: bytes) -> List[ast.FunctionDef]:
    """The top-level functions of source, parsed once; none if source does
    not parse, as a module's bytecode does not."""
    with contextlib.suppress(SyntaxError, ValueError):
        return [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    return []


def _twin(node: ast.FunctionDef, filename: str) -> Any:
    """node's def compiled with the count first in the body that repeats;
    node is changed."""
    host = next((s for s in node.body if isinstance(s, (ast.While, ast.For))), node)
    count = ast.increment_lineno(ast.parse("_steps[0] += 1").body[0], host.lineno - 1)
    host.body.insert(0, count)  # a docstring no longer first compiles to nothing
    return compile(ast.Module([node], []), filename, "exec")


def _clauses(fn: ast.FunctionDef, names: Collection[str]) -> Tuple[Clause, ...]:
    params = [a.arg for a in fn.args.args]
    typed: Dict[str, str] = {}  # a local bound to type(p) -> p
    table: List[Clause] = []
    # (start, end, text) of each call in fn to a function named in names
    spans = sorted(((c.lineno, c.col_offset), (c.end_lineno, c.end_col_offset), ast.unparse(c))
                   for c in ast.walk(fn)
                   if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id in names)

    def calls_in(node: ast.AST) -> List[str]:
        start, end = (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)
        return [text for first, last, text in spans if start <= first and last <= end]

    def walk(body: List[ast.stmt], held: List[ast.expr], calls: List[str]) -> None:
        # held: the tests that held on the way to body; calls: those made on it
        for stmt in body:
            if isinstance(stmt, (ast.Return, ast.Raise)):
                if not _fallthrough(stmt):
                    classes = dict(filter(None, (_type_test(e, typed) for e in held)))
                    label = f"{fn.name}[{','.join(classes.get(p, '_') for p in params)}]"
                    tests = tuple(ast.unparse(e) for e in held if not _type_test(e, typed))
                    made = tuple(calls + calls_in(stmt))
                    table.append(Clause(stmt.lineno, label, tests, ast.unparse(stmt), made))
                return  # what follows in this body is never reached
            if isinstance(stmt, ast.If):
                evaluated = calls + calls_in(stmt.test)
                walk(stmt.body, held + [stmt.test], evaluated)
                walk(stmt.orelse, held, evaluated)
                calls = evaluated
                continue
            if isinstance(stmt, ast.Assign):  # tx = type(x), or tx, ty = type(x), type(y)
                target, value = stmt.targets[0], stmt.value
                pairs = zip(target.elts, value.elts) if isinstance(target, ast.Tuple) \
                    and isinstance(value, ast.Tuple) else [(target, value)]
                typed.update((local.id, p) for local, value in pairs
                             if isinstance(local, ast.Name) and (p := _type_of(value)))
            calls = calls + calls_in(stmt)

    walk(fn.body, [], [])
    return tuple(table)


def _type_of(node: ast.expr) -> Optional[str]:
    """p if node is ``type(p)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type" \
            and len(node.args) == 1 and isinstance(node.args[0], ast.Name):
        return node.args[0].id
    return None


def _type_test(test: ast.expr, typed: Dict[str, str]) -> Optional[Tuple[str, str]]:
    """(p, "C") if test is ``tx is C`` with tx bound to ``type(p)``."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], ast.Is) \
            and isinstance(test.left, ast.Name) and test.left.id in typed \
            and isinstance(test.comparators[0], ast.Name):
        return typed[test.left.id], test.comparators[0].id
    return None


def _fallthrough(stmt: ast.stmt) -> bool:
    """Whether stmt raises TypeError: the fallthrough for a foreign value."""
    if not isinstance(stmt, ast.Raise):
        return False
    exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
    return isinstance(exc, ast.Name) and exc.id == "TypeError"

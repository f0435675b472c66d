"""Count the code lines of Python files, and find repeated windows of lines.

    python tests/code_lines.py src/numrep              each file's code lines, then the total
    python tests/code_lines.py --repeats 4 src/numrep  each 4-line window that occurs more than once

A path is a ``.py`` file or a directory, whose ``.py`` files are read
recursively in sorted order.  A code line is a line that holds a token
other than a comment, a docstring or whitespace; every line of a
multi-line token counts, so a multi-line string that is no docstring
counts whole.  A docstring is the string that opens the body of a
module, a class or a function.

The window scan reads each file's lines stripped, drops the blank lines
and the comment lines, and prints each window of that many consecutive
lines that occurs more than once, in one file or across files, with the
file and first line number of each occurrence.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import collections
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

# tokens that are no code: layout and comments
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set:
    """The (line, column) where each docstring of source starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code."""
    docstrings, lines = _docstring_starts(source), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def repeats(files: Dict[str, str], size: int) -> List[Tuple[Tuple[str, ...], List[Tuple[str, int]]]]:
    """Each window of size kept lines that occurs more than once, with the
    (file, line number) of each occurrence, in the order first seen."""
    seen: Dict[Tuple[str, ...], List[Tuple[str, int]]] = collections.defaultdict(list)
    for name, source in files.items():
        kept = [(n, line.strip()) for n, line in enumerate(source.splitlines(), 1)
                if line.strip() and not line.strip().startswith("#")]
        for i in range(len(kept) - size + 1):
            window = tuple(text for _, text in kept[i:i + size])
            seen[window].append((name, kept[i][0]))
    return [(window, where) for window, where in seen.items() if len(where) > 1]


def _python_files(paths: Iterable[str]) -> Dict[str, str]:
    files = {}
    for path in map(Path, paths):
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            files[str(file)] = file.read_text()
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines, or find repeated windows of lines.")
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    parser.add_argument("--repeats", type=int, metavar="N", help="print each N-line window that occurs more than once")
    args = parser.parse_args(argv)
    files = _python_files(args.paths)
    if args.repeats is not None:
        found = repeats(files, args.repeats)
        for window, where in found:
            print(", ".join(f"{name}:{n}" for name, n in where))
            print("".join(f"    {line}\n" for line in window))
        print(f"{len(found)} repeated {args.repeats}-line windows")
        return 0
    counts = {name: code_lines(source) for name, source in files.items()}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

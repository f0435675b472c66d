"""Inductive number representations and the sequences they index.

Submodules: :mod:`numrep.unary` (Peano naturals), :mod:`numrep.binary`
(canonical binary naturals), :mod:`numrep.twoscomp` (two's-complement
integers), :mod:`numrep.braun` (index numerals and Braun-tree
sequences), :mod:`numrep.listlab` (list-recursion exemplars),
:mod:`numrep.costmeter` (step counting), :mod:`numrep.numio` (literal
parsing/printing and CSV), :mod:`numrep.checks` (property suites).

The two tooling layers, :mod:`numrep.checks` and :mod:`numrep.costmeter`,
load on first use (``numrep.costmeter`` or ``from numrep import
costmeter``): a program that only computes with numerals, such as a
``numrep convert`` process, never compiles them.
"""

import importlib

from . import binary, braun, listlab, numio, twoscomp, unary

__all__ = [
    "binary", "braun", "checks", "costmeter", "listlab", "numio",
    "twoscomp", "unary",
]
__version__ = "0.1.0"

_ON_FIRST_USE = ("checks", "costmeter")


def __getattr__(name):
    if name in _ON_FIRST_USE:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

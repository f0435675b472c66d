"""Inductive number representations and the sequences they index.

Submodules: :mod:`numrep.unary` (Peano naturals), :mod:`numrep.binary`
(canonical binary naturals), :mod:`numrep.twoscomp` (two's-complement
integers), :mod:`numrep.braun` (index numerals and Braun-tree
sequences), :mod:`numrep.listlab` (list-recursion exemplars),
:mod:`numrep.costmeter` (step counting), :mod:`numrep.numio` (literal
parsing/printing and CSV), :mod:`numrep.checks` (property suites).

Every submodule loads on first use, as an attribute (``numrep.braun``)
or an import (``from numrep import braun``), and brings in only the
layers it imports itself: ``import numrep`` compiles no layer, and a
Braun-only program compiles ``numrep.braun`` and ``numrep.binary``.
"""

import importlib

__all__ = [
    "binary", "braun", "checks", "costmeter", "listlab", "numio",
    "twoscomp", "unary",
]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

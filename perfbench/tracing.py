"""In-memory spans around the benchmark's own calls into numrep's layers.

A span is (name, start, end, parent, op, error).  Its name is
``<layer>.<function>`` for a call into a layer, or ``op`` for the root
span of one benchmark operation; spans of one operation share ``op``.
Self time is a span's duration minus the part its direct children cover.
Nothing here runs in an untraced run: workloads call the library's
functions directly unless they were handed a :class:`Tracer`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple

LAYERS = ("unary", "binary", "twoscomp", "braun", "listlab",
          "costmeter", "numio", "checks", "cli")


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int
    error: bool


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._open: List[int] = []

    def run(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps spans in start order
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        error = True
        start = perf_counter_ns()
        try:
            result = fn(*args)
            error = False
            return result
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, error)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any) -> Any:
            return self.run(name, fn, *args)
        return traced

    def root(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one benchmark operation under a fresh op id."""
        self.op += 1
        return self.run("op", fn, *args)

    def self_ns(self) -> List[int]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls``, ``.busy_s`` (self time) and ``.errors`` per layer."""
        calls: Dict[str, int] = defaultdict(int)
        busy: Dict[str, int] = defaultdict(int)
        errors: Dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self.self_ns()):
            layer = span.name.split(".", 1)[0]
            calls[layer] += 1
            busy[layer] += own
            errors[layer] += span.error
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer] / 1e9
            out[f"{layer}.errors"] = errors[layer]
        return out

    def busy_s(self, name: str) -> float:
        """Self time of every span with exactly this name."""
        return sum(own for s, own in zip(self.spans, self.self_ns())
                   if s.name == name) / 1e9

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")

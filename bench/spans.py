"""Spans recorded by the benchmark around its calls into ``patchbank``.

A span is a named wall-clock interval with a parent.  The benchmark opens
one around each call into a public function of a package module, so the
per-layer numbers come from outside the package: nothing in ``src/`` is
edited or patched.  Spans stay in memory and are summarised when the run
ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list, or None


class Tracer:
    """Records spans into ``spans`` until ``take`` hands them over."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Tracing off: ``span`` does nothing and nothing is kept."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def take(self) -> list[Span]:
        return []


def seconds_by_name(spans: list[Span]) -> dict[str, float]:
    """Total duration of the spans of each name."""
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
    return dict(total)


def top_level_seconds(spans: list[Span]) -> float:
    """Time covered by spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)

"""In-memory span tracer whose wrappers are installed from outside the
program under test.

A span records name, start, end and parent.  Hot calls (compiled
polynomials, exact evaluation, jump moments) are leaves: each call adds
its time to a per-name total and to its enclosing span's child time
without storing a span of its own, which keeps a round's trace to a few
hundred records.  A span's self time is its duration minus the time its
child spans and leaf calls cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int                 # index into Tracer.spans, -1 for a root
    end: float = 0.0
    child: float = 0.0          # time covered by child spans and leaves

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.deferred: list = []        # work to run once the op is over
        self._stack: list[int] = []
        self._in_leaf = False
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration

    def spanned(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(tracer, args, kwargs, result)
        runs after the span closes, so its cost is not charged to the
        layer."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapped

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                self.leaf_time[name] += elapsed
                self.leaf_calls[name] += 1
                if self._stack:
                    self.spans[self._stack[-1]].child += elapsed
        return wrapped

    # -- installation --------------------------------------------------------

    def install(self, module_name: str, attr: str, make) -> None:
        """Replace module_name.attr (attr may be "Class.method") by
        make(original).  A missing module or name is recorded as absent
        rather than failing, so the trace survives refactors."""
        try:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
        except (ImportError, AttributeError):
            if f"{module_name}.{attr}" not in self.absent:
                self.absent.append(f"{module_name}.{attr}")
            return
        setattr(owner, last, make(original))
        self._installed.append((owner, last, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def flush(self) -> None:
        while self.deferred:
            self.deferred.pop()()

    # -- summaries -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)

    def total_time(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]

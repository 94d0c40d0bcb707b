"""In-memory spans and counts for the traced benchmark run.

A span records one call (or one batch of calls to the same function) from
the benchmark into a layer of the package: its name, start, end, the span
that was open around it, the case it belongs to, and how many calls it
covers.  Spans stay in memory until the run ends; ``Tracer.self_times``
then derives each layer's self time from them.  Counts are added at the
same call sites.

``NULL`` is the tracer of an untraced run: its spans and counts do nothing.
"""

from __future__ import annotations

import json
from time import perf_counter

NAME, START, END, PARENT, CASE, CALLS = range(6)


class _Span:
    __slots__ = ("tracer", "name", "calls", "index")

    def __init__(self, tracer, name, calls):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.stack.append(self.index)
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.case,
                        self.calls])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][END] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self.counts = {}

    def span(self, name: str, calls: int = 1) -> _Span:
        return _Span(self, name, calls)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict:
        """Per span name: total duration minus the time covered by child
        spans, and the number of calls covered."""
        busy = {}
        calls = {}
        for rec in self.spans:
            dur = rec[END] - rec[START]
            busy[rec[NAME]] = busy.get(rec[NAME], 0.0) + dur
            calls[rec[NAME]] = calls.get(rec[NAME], 0) + rec[CALLS]
            if rec[PARENT] >= 0:
                parent = self.spans[rec[PARENT]][NAME]
                busy[parent] = busy.get(parent, 0.0) - dur
        return {name: (busy[name], calls[name]) for name in busy}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "case",
                                 "calls"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, calls: int = 1) -> _NullSpan:
        return self._span

    def count(self, name: str, value: int) -> None:
        pass


NULL = _NullTracer()


class TracedOracle:
    """Delegates to a witness oracle and records a span around each
    image choice and each completion, so oracle probes are timed and
    counted through the public oracle interface."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def extendable(self, b) -> bool:
        return self.inner.extendable(b)

    def choose_image(self, b, q, forbidden):
        with self.tracer.span("witness.choose_image"):
            return self.inner.choose_image(b, q, forbidden)

    def complete(self, b):
        with self.tracer.span("witness.complete"):
            return self.inner.complete(b)

"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer, made from the benchmark's own code:
name, start, end, span id, parent span id and a trace id
(``workload/rep``).  Spans stay in memory while the run measures and are
written as JSONL once it ends, so recording costs two clock reads and one
list append per span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("span_id", "parent", "trace", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], trace: str,
                 name: str, start: float):
        self.span_id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "trace": self.trace,
            "span": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects nested spans; times are seconds since the recorder began."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._origin = time.perf_counter()
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, trace: str, **attrs: object) -> Iterator[Span]:
        """Time the ``with`` body as a child of the innermost open span of
        the same trace (a root span otherwise)."""
        parent = next(
            (s.span_id for s in reversed(self._open) if s.trace == trace), None
        )
        sp = Span(len(self.spans), parent, trace, name,
                  time.perf_counter() - self._origin)
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self._origin
            self._open.remove(sp)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's self time: its duration minus the
        part of its interval that its children cover."""
        children: Dict[int, List[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out: Dict[str, List[float]] = {}
        for sp in self.spans:
            covered = 0.0
            edge = sp.start
            for child in sorted(children.get(sp.span_id, []),
                                key=lambda c: c.start):
                lo, hi = max(child.start, edge), min(child.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.setdefault(sp.name, []).append(sp.duration - covered)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict(), separators=(",", ":")) + "\n")

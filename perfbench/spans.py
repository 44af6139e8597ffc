"""In-memory spans for the traced benchmark run.

A span records one call across a layer boundary: its name, start, end,
the span that caused it and the op it belongs to.  Spans stay in memory
and are written as JSON when the run ends.  A layer's self time is its
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Open:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; call it with a name to open one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def __call__(self, name: str) -> _Open:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op, "start": None, "end": None}
        self.spans.append(record)
        return _Open(self, record)

    def _children(self) -> dict[int, float]:
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        return children

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children = self._children()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += (span["end"] - span["start"]
                                     - children[span["id"]])
        return dict(totals)

    def by_op(self) -> dict[int, dict[str, tuple[float, float]]]:
        """``{op: {name: (self seconds, inclusive seconds)}}``, summed
        over the spans of one name within one op."""
        children = self._children()
        table: dict[int, dict[str, tuple[float, float]]] = defaultdict(dict)
        for span in self.spans:
            total = span["end"] - span["start"]
            own = total - children[span["id"]]
            before = table[span["op"]].get(span["name"], (0.0, 0.0))
            table[span["op"]][span["name"]] = (before[0] + own,
                                               before[1] + total)
        return dict(table)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class _Closed:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_CLOSED = _Closed()


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    op: int | None = None

    def __call__(self, _name: str) -> _Closed:
        return _CLOSED

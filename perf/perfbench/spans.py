"""In-memory spans recorded by the benchmark around public calls.

A span is ``{id, parent, name, start, end, op, workload, thread}``.  Spans are
kept in a list and written out once, at exit; nothing inside ``repro``
is instrumented.  Self time is a span's duration minus the part of its
interval that its direct children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Dict, Iterable, List, Optional


class Tracer:
    """Records nested spans; each thread nests independently."""

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {"id": next(self._ids),
                  "parent": stack[-1] if stack else None,
                  "name": name, "op": op, "workload": self.workload,
                  "thread": threading.get_ident(),
                  "start": time.perf_counter(), "end": None}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)


class NullTracer:
    """The untraced run: ``span`` costs one shared no-op context."""

    enabled = False
    spans: List[dict] = []
    _noop = contextlib.nullcontext()

    def span(self, name: str, op: Optional[int] = None):
        return self._noop


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's cover."""
    spans = list(spans)
    children: Dict[int, List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def totals_by_name(spans: Iterable[dict]) -> Dict[str, dict]:
    """Per span name: count, total seconds, self seconds."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return table

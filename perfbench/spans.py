"""In-memory spans around the benchmark's calls into the chiral444 modules.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that was open when it began, and the id of the operation it belongs to.
Spans stay in memory until the run ends and are written out in one piece.
The untraced run uses ``NullTracer``, whose calls go straight through.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Records nothing; ``call`` is a direct call."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, op=None):
        return nullcontext()

    def count(self, name, n):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._next_id = 1

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        parent = self._open[-1] if self._open else None
        rec = {"id": self._next_id, "name": name,
               "parent": parent["id"] if parent else None,
               "op": op if op is not None else (parent["op"] if parent else None),
               "start": time.perf_counter(), "end": None, "counts": {}}
        self._next_id += 1
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def count(self, name, n):
        """Add ``n`` to counter ``name`` on the innermost open span."""
        counts = self._open[-1]["counts"]
        counts[name] = counts.get(name, 0) + n


def with_self_times(spans: list[dict]) -> list[dict]:
    """Each span plus ``self_s``: its duration minus the time its children
    cover.  Children of one span never overlap (the benchmark is one thread)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out = []
    for s in sorted(spans, key=lambda s: s["start"]):
        dur = s["end"] - s["start"]
        out.append(dict(s, dur_s=dur, self_s=dur - child_time.get(s["id"], 0.0)))
    return out

"""In-memory span recorder used by the traced run.

A span records one call from the benchmark into a layer of the package:
name (``layer.function``), start, end, parent span and iteration id, plus
any counts the caller attaches. With ``enabled`` false, ``span()`` returns a
shared no-op context so the untraced run pays one attribute test per call.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.iteration = None
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return _Span(self, name, counts)

    def of(self, iteration) -> list[dict]:
        return [s for s in self.spans if s["iteration"] == iteration]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, counts: dict):
        self.tracer = tracer
        self.rec = {"name": name, "iteration": tracer.iteration, **counts}

    def __enter__(self) -> dict:
        t = self.tracer
        rec = self.rec
        rec["id"] = len(t.spans)
        rec["parent"] = t._open[-1]["id"] if t._open else None
        t.spans.append(rec)
        t._open.append(rec)
        rec["start"] = perf_counter()
        return rec

    def __exit__(self, *exc) -> bool:
        self.rec["end"] = perf_counter()
        self.tracer._open.pop()
        return False


def count(spans, name) -> int:
    return sum(1 for s in spans if s["name"] == name)


def total(spans, name, key) -> float:
    """Sum of the count `key` attached to the spans called `name`."""
    return sum(s[key] for s in spans if s["name"] == name)

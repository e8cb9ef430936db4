"""In-memory spans for the traced run.

A span is one call into a public function of the package, recorded by
the benchmark around that call: name, start, end (time.perf_counter
seconds, which on Linux is the system-wide monotonic clock, so spans
reported by child processes line up), the id of the enclosing span and
a few attributes.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager recording one span; a no-op when disabled."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, attrs)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured elsewhere, e.g. in a child process."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end,
                           "parent": self._stack[-1] if self._stack else None,
                           "attrs": attrs})

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def median(self, name: str, **attrs) -> float:
        found = self.durations(name, **attrs)
        if not found:
            raise KeyError(f"no span {name} {attrs}")
        return statistics.median(found)

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))

    def write(self, path) -> None:
        path.write_text(json.dumps(self.spans))


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "start": 0.0,
                       "end": 0.0, "parent": None, "attrs": attrs}

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append(self.record)
        tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False

"""In-memory spans around the benchmark's calls into cohash's layers.

A span has a name, the layer it times, start and end (perf_counter
nanoseconds), the span that was open when it started, and the request
it belongs to.  Spans are kept in memory while the workload runs and
written as JSON lines once it has finished.  With tracing off, ``span``
hands back one shared no-op context so the untraced runs pay almost
nothing for the instrumentation.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

_OFF = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.record)
        self.record["start_ns"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    """Records spans while ``enabled`` is true; the flag may be toggled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, layer: str, request=None):
        if not self.enabled:
            return _OFF
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {
            "id": len(self.spans) + 1,
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
            "start_ns": 0,
            "end_ns": 0,
        }
        self.spans.append(record)
        return _Span(self, record)

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every finished span with this name."""
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans
                if s["name"] == name and s["end_ns"]]

    def median_s(self, name: str) -> float:
        """Median span length in seconds; 0.0 when the layer never ran."""
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds each layer spent outside its child spans.

        A span's self time is its length minus the part of it that its
        direct children cover; children of one parent never overlap
        because every span is opened on the benchmark's own thread.
        """
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                         + s["end_ns"] - s["start_ns"])
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9
        return out

    def write_jsonl(self, path: Path, header: dict) -> None:
        """One header line, then one line per span in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in sorted(self.spans, key=lambda s: s["start_ns"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")

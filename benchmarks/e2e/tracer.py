"""In-memory span tracer for the traced benchmark run.

The benchmark measures the repo's layers from outside: it wraps each call
into a layer's public function in a span (name, layer, start, end, parent
span, run id), keeps the spans in memory and writes them to
``trace-<workload>.json`` when the run ends.  A span's *self time* is its
duration minus the part of its interval its child spans cover.

Disabled tracers hand out one shared no-op context manager, so the
untraced run (which produces the end-to-end metrics) pays one attribute
lookup and one ``with`` per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = [
    "Tracer",
    "span_cost",
    "covered",
    "self_times",
    "layer_time_under_bench",
    "summarize",
]


_NOOP = nullcontext()


class Tracer:
    """Collects spans.  Only the benchmark's main thread opens spans."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, run: str | None = None):
        """Context manager timing one call; ``name`` is ``<layer>.<what>``.

        ``run`` tags every span of one operation (a chunk, a pass, a
        request) with a shared identifier; children inherit their
        parent's when they pass none.
        """
        if not self.enabled:
            return _NOOP
        return self._span(name, run)

    @contextmanager
    def _span(self, name: str, run: str | None):
        stack = self._stack
        parent = stack[-1] if stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": None if parent is None else parent["id"],
            "run": run if run is not None else (parent["run"] if parent else None),
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "summary": summarize(self.spans), "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs on this host (the tracing overhead)."""
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("trace.calibrate"):
            pass
    return (time.perf_counter() - t0) / n


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus what child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_time_under_bench(spans: list[dict]) -> float:
    """Summed self time of layer spans nested under a ``bench.*`` span.

    The benchmark's own grouping spans (``bench.pass``, ``bench.replay_*``)
    mark what stands for a composite the end-to-end run timed as a whole;
    layer spans outside them (composites themselves, off-path probes) do
    not count towards ``trace.coverage_share``.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    total = 0.0
    for s in spans:
        if s["layer"] == "bench":
            continue
        cursor = s
        while cursor["parent"] is not None:
            cursor = by_id[cursor["parent"]]
        if cursor["layer"] == "bench":
            total += selfs[s["id"]]
    return total


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, summed duration and summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"layer": s["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out

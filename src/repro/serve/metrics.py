"""Request / latency / throughput metrics for the serving subsystem.

Everything here is thread-safe and cheap enough to update on every
request: counters are plain ints behind one lock, latency distributions
are bounded reservoirs of the most recent samples (percentiles over a
sliding window, which is what an operator actually wants from a serving
dashboard), and throughput is derived from the first/last completion
timestamps.  :meth:`ServerMetrics.snapshot` returns a plain dict so
callers can print, assert on, or ship the numbers without holding locks.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

__all__ = ["LATENCY_WINDOW", "LatencyRecorder", "ServerMetrics"]

#: Most-recent latency samples kept per distribution for percentiles.
LATENCY_WINDOW = 4096


class LatencyRecorder:
    """Bounded sliding-window sample reservoir with percentile queries."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._samples: deque[float] = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0

    def record(self, value_ms: float) -> None:
        with self._lock:
            self._samples.append(float(value_ms))
            self._count += 1
            self._total += float(value_ms)

    @property
    def count(self) -> int:
        """Total samples ever recorded (not just the retained window)."""
        with self._lock:
            return self._count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) over the retained window."""
        with self._lock:
            if not self._samples:
                return float("nan")
            return float(np.percentile(np.fromiter(self._samples, float), q))

    def summary(self) -> dict[str, float]:
        """count / mean / p50 / p99 / max over the retained window."""
        with self._lock:
            if not self._samples:
                return {"count": self._count, "mean": float("nan"),
                        "p50": float("nan"), "p99": float("nan"),
                        "max": float("nan")}
            arr = np.fromiter(self._samples, float)
            p50, p99 = np.percentile(arr, [50.0, 99.0])
            return {
                "count": self._count,
                "mean": float(arr.mean()),
                "p50": float(p50),
                "p99": float(p99),
                "max": float(arr.max()),
            }


class ServerMetrics:
    """All counters and distributions one :class:`repro.serve.Server` keeps.

    Latencies are in milliseconds.  ``queue_wait`` is admission to
    execution start, ``service`` is the packed sweep itself, ``e2e`` is
    admission to handle resolution — so ``e2e ~= queue_wait + service``
    for requests that ran, and expiry/failure paths still record ``e2e``.
    """

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self.queue_wait = LatencyRecorder(window)
        self.service = LatencyRecorder(window)
        self.e2e = LatencyRecorder(window)
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "expired": 0,
            "batches": 0,
            "batched_circuits": 0,
            # Multi-process gateway only; always 0 on the threaded Server.
            "worker_deaths": 0,
            "restarts": 0,
        }
        self._first_completion: float | None = None
        self._last_completion: float | None = None

    # ------------------------------------------------------------------
    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] += by

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def record_batch(self, size: int, service_ms: float) -> None:
        """One packed flush of ``size`` circuits taking ``service_ms``."""
        now = time.monotonic()
        with self._lock:
            self._counters["batches"] += 1
            self._counters["batched_circuits"] += size
            if self._first_completion is None:
                self._first_completion = now - service_ms / 1000.0
            self._last_completion = now
        self.service.record(service_ms)

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            if not self._counters["batches"]:
                return float("nan")
            return self._counters["batched_circuits"] / self._counters["batches"]

    @property
    def throughput(self) -> float:
        """Completed circuits/sec between first and last batch completion."""
        with self._lock:
            completed = self._counters["completed"]
            first, last = self._first_completion, self._last_completion
        if not completed or first is None or last is None or last <= first:
            return float("nan")
        return completed / (last - first)

    def snapshot(self) -> dict:
        """A lock-free-to-consume dict of every metric."""
        with self._lock:
            counters = dict(self._counters)
        return {
            **counters,
            "mean_batch_size": self.mean_batch_size,
            "throughput_cps": self.throughput,
            "queue_wait_ms": self.queue_wait.summary(),
            "service_ms": self.service.summary(),
            "e2e_ms": self.e2e.summary(),
        }

    def format(self) -> str:
        """Human-readable multi-line report of :meth:`snapshot`."""
        snap = self.snapshot()
        lines = [
            "requests: {submitted} submitted, {completed} completed, "
            "{failed} failed, {expired} expired, {rejected} rejected".format(**snap),
            f"batches: {snap['batches']} "
            f"(mean size {snap['mean_batch_size']:.2f})",
            f"throughput: {snap['throughput_cps']:.1f} circuits/sec",
        ]
        for key in ("queue_wait_ms", "service_ms", "e2e_ms"):
            s = snap[key]
            lines.append(
                f"{key:>14}: p50 {s['p50']:8.2f}  p99 {s['p99']:8.2f}  "
                f"max {s['max']:8.2f}  (n={s['count']})"
            )
        return "\n".join(lines)

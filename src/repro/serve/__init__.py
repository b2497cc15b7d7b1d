"""Sharded serving subsystem: deadline-batched multi-worker inference.

* :mod:`repro.serve.batching` — the front half both tiers share:
  :class:`~repro.serve.batching.MicroBatcher` (bounded admission,
  per-request deadlines, work-conserving micro-batch flush, backlog claim
  — a synchronous, clock-injected policy object), request validation, the
  one-plan warm-up and the typed :class:`ServeError` family;
* :mod:`repro.serve.server` — :class:`Server`: K worker threads, each
  holding a serialized-equal model replica, driving one batcher under a
  lock; graceful drain/shutdown;
* :mod:`repro.serve.gateway` — :class:`Gateway` / :class:`GatewayClient`,
  the multi-*process* tier: an asyncio socket front door driving the same
  batcher over a pool of N worker processes, with shared-memory
  feature/result arenas and crash-restart (typed :class:`WorkerDied`
  failures, never hung clients);
* :mod:`repro.serve.metrics` — thread-safe request / latency / throughput
  metrics behind :attr:`Server.metrics` and :attr:`Gateway.metrics`.

Configuration lives in :class:`repro.experiments.config.ServeConfig`.
Both tiers' float64 serving paths are bitwise-identical to sequential
:meth:`RecurrentDagGnn.predict`; see ``tests/serve/`` for the differential
fuzz and concurrency suites that enforce it.
"""

from repro.experiments.config import ServeConfig
from repro.serve.batching import (
    DeadlineExceeded,
    QueueFull,
    ServeError,
    ServerClosed,
    WorkerDied,
)
from repro.serve.gateway import Gateway, GatewayClient
from repro.serve.metrics import LatencyRecorder, ServerMetrics
from repro.serve.server import ServeFuture, Server

__all__ = [
    "ServeConfig",
    "Server",
    "Gateway",
    "GatewayClient",
    "ServeFuture",
    "ServeError",
    "ServerClosed",
    "QueueFull",
    "DeadlineExceeded",
    "WorkerDied",
    "ServerMetrics",
    "LatencyRecorder",
]

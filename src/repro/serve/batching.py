"""The serving front half, once: admission, flush, claim, expiry.

The threaded :class:`repro.serve.Server` and the asyncio
:class:`repro.serve.Gateway` batch requests by one rule, and it lives here
only: **admit** into a FIFO bounded by ``max_pending``; a **flush** is due
when nothing is in flight, ``batch_size`` requests are pending, the oldest
has waited ``max_latency_ms``, or the front end is closing — so
``max_latency_ms`` only ever holds a partial batch while another batch
runs; **claim** the backlog off the head as one pack of up to
``batch_size`` requests, expiring members whose deadline passed;
**finish** / **fail** what was claimed and **fail_pending** what never
ran.  Every request resolves exactly once and every
:class:`~repro.serve.metrics.ServerMetrics` update rides those transitions.

:class:`MicroBatcher` is synchronous: it takes its clock as an argument,
waits on nothing and holds no lock.  The caller supplies the concurrency —
``Server`` calls it under its lock and sleeps :meth:`MicroBatcher.wait_s`
on a condition variable, ``Gateway`` calls it on its loop thread and sleeps
the same number on an ``asyncio.Event`` — so the policy is tested with a
fake clock and no threads (``tests/serve/test_batching.py``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.config import ServeConfig
from repro.runtime.pack import pack_graphs
from repro.serve.metrics import ServerMetrics

__all__ = [
    "ServeError",
    "ServerClosed",
    "QueueFull",
    "DeadlineExceeded",
    "WorkerDied",
    "Request",
    "MicroBatcher",
    "warm_plan",
    "validate_request",
]


class ServeError(RuntimeError):
    """Base class of every serving-layer failure."""


class ServerClosed(ServeError):
    """The server is shutting down (or already shut down)."""


class QueueFull(ServeError):
    """Non-blocking submit found the admission queue at ``max_pending``."""


class DeadlineExceeded(ServeError):
    """The request's deadline expired before execution started."""


class WorkerDied(ServeError):
    """A worker process died with this request in flight.

    The request may or may not have executed — the caller must treat it
    as failed and retry idempotently if desired.  The gateway restarts
    the worker slot in the background.
    """


def warm_plan(model, graph, dtype) -> None:
    """Compile ``graph``'s own plan for ``model``: schedule and feature rows.

    A lone request over ``graph`` then runs straight from the caches.  A
    pack of several requests compiles its union plan once, on first use,
    at a few percent of the sweep it serves.
    """
    custom = getattr(model, "use_custom_batches", True)
    plan = pack_graphs([graph]).plan
    plan.schedule(custom)
    plan.feature_rows(custom, dtype)


def validate_request(num_pis: int, workload, deadline_ms: float | None) -> None:
    """Reject a request that could never be served, before it is queued."""
    wl_pis = getattr(workload, "num_pis", None)
    if wl_pis is not None and wl_pis != num_pis:
        raise ValueError(f"workload has {wl_pis} PIs, circuit has {num_pis}")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ValueError("deadline_ms must be positive (or None)")


@dataclass(slots=True)
class Request:
    """One admitted request, from admission to its single resolution.

    ``payload`` is whatever the front end executes (a ``CircuitGraph`` for
    the server, a structure fingerprint for the gateway); ``resolve(value,
    error)`` delivers the outcome and is called exactly once.
    """

    payload: object
    workload: object
    t_submit: float
    t_deadline: float | None
    resolve: Callable[[object, Exception | None], None]
    done: bool = field(default=False, init=False)


class MicroBatcher:
    """Deadline micro-batching policy over one bounded FIFO.

    Args:
        config: the front end's :class:`ServeConfig` (``batch_size``,
            ``max_latency_ms``, ``max_pending``, default ``deadline_ms``).
        metrics: the :class:`ServerMetrics` this batcher keeps current.
        clock: monotonic seconds; injected so tests can step time.
    """

    def __init__(
        self,
        config: ServeConfig,
        metrics: ServerMetrics,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.clock = clock
        self.closing = False
        #: requests claimed by :meth:`claim` and not yet finished or failed.
        self.inflight = 0
        self._queue: deque[Request] = deque()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests admitted but not yet claimed."""
        return len(self._queue)

    @property
    def full(self) -> bool:
        """A blocking submitter should wait (never true once closing)."""
        return not self.closing and len(self._queue) >= self.config.max_pending

    @property
    def idle(self) -> bool:
        """Nothing queued and nothing claimed-but-unresolved."""
        return not self._queue and not self.inflight

    # ------------------------------------------------------------------
    def admit(self, payload, workload, deadline_ms: float | None, resolve) -> Request:
        """Queue one request; ``deadline_ms=None`` takes the config default.

        Never waits: raises :class:`ServerClosed` once closing and
        :class:`QueueFull` at ``max_pending`` — a blocking front end waits
        out :attr:`full` before calling.
        """
        if self.closing:
            raise ServerClosed("shut down: no new requests are admitted")
        if len(self._queue) >= self.config.max_pending:
            self.metrics.incr("rejected")
            raise QueueFull(
                f"admission queue at max_pending={self.config.max_pending}"
            )
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        now = self.clock()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        request = Request(payload, workload, now, deadline, resolve)
        self._queue.append(request)
        self.metrics.incr("submitted")
        return request

    def wait_s(self) -> float | None:
        """Seconds until the next flush is due.

        ``None`` with nothing pending (sleep until an admission), ``0.0``
        when a flush is due now — nothing in flight, ``batch_size``
        pending, closing, or the oldest request aged ``max_latency_ms`` —
        else the time left until the oldest request reaches that age.

        The rule is work-conserving: waiting for companions only pays
        while a claimed batch is still running (the backlog forms behind
        it by itself), so an idle front end dispatches at once.
        """
        if not self._queue:
            return None
        if (
            not self.inflight
            or len(self._queue) >= self.config.batch_size
            or self.closing
        ):
            return 0.0
        due = self._queue[0].t_submit + self.config.max_latency_ms / 1000.0
        return max(0.0, due - self.clock())

    def claim(self) -> list[Request]:
        """Pop the backlog off the head as one pack of up to ``batch_size``
        requests; returns its still-live members.

        Members whose deadline passed while queued are resolved here with
        :class:`DeadlineExceeded`; the rest are in flight until handed to
        :meth:`finish` or :meth:`fail`.  Requests beyond ``batch_size``
        stay queued in order (and keep their own flush clock).
        """
        now = self.clock()
        live: list[Request] = []
        for _ in range(min(len(self._queue), self.config.batch_size)):
            req = self._queue.popleft()
            waited_ms = (now - req.t_submit) * 1000.0
            if req.t_deadline is not None and now > req.t_deadline:
                error = DeadlineExceeded(
                    f"request queued {waited_ms:.1f} ms, deadline was "
                    f"{1000 * (req.t_deadline - req.t_submit):.1f} ms"
                )
                self._settle(req, "expired", None, error, now)
            else:
                self.metrics.queue_wait.record(waited_ms)
                live.append(req)
        self.inflight += len(live)
        return live

    def finish(self, requests: Sequence[Request], outcomes: Sequence, started: float) -> None:
        """Resolve a claimed batch that executed from ``started`` to now.

        ``outcomes[i]`` is request *i*'s value, or the :class:`Exception`
        that request alone failed with.
        """
        now = self.clock()
        self.metrics.record_batch(len(requests), (now - started) * 1000.0)
        for req, outcome in zip(requests, outcomes):
            self.inflight -= 1
            if isinstance(outcome, Exception):
                self._settle(req, "failed", None, outcome, now)
            else:
                self._settle(req, "completed", outcome, None, now)

    def fail(self, requests: Sequence[Request], error: Exception) -> None:
        """Fail the not-yet-resolved members of a claimed batch."""
        now = self.clock()
        for req in requests:
            if not req.done:
                self.inflight -= 1
                self._settle(req, "failed", None, error, now)

    def close(self) -> None:
        """Stop admitting; whatever is queued becomes due immediately."""
        self.closing = True

    def fail_pending(self, error: Exception) -> None:
        """Fail every queued (unclaimed) request with ``error``."""
        now = self.clock()
        while self._queue:
            self._settle(self._queue.popleft(), "failed", None, error, now)

    def _settle(self, req: Request, counter: str, value, error, now: float) -> None:
        req.done = True
        self.metrics.incr(counter)
        self.metrics.e2e.record((now - req.t_submit) * 1000.0)
        req.resolve(value, error)

"""Multi-worker serving front-end over the packed inference runtime.

A :class:`Server` owns K worker threads.  Each worker holds its *own*
model replica at the serving dtype — cloned through the npz serialization
round-trip (:func:`repro.nn.serialize.clone_module`), exactly what a
worker process restoring the model from disk would hold, then cast once
(:func:`repro.runtime.predictor.cast_model`).  No sweep ever rebinds a
replica's parameters, so workers share no lock.  All workers share
the process-wide fingerprint-keyed plan and pack LRUs, so a circuit
structure is compiled once no matter which worker serves it.

In front of the workers sits a bounded admission queue with work-conserving
micro-batching: a worker claims a batch at once when no batch is in
flight, and otherwise when ``batch_size`` requests are pending **or** the
oldest pending request has waited ``max_latency_ms``, whichever comes
first.  A trickle of traffic never waits on a timer, and under load the
backlog that forms behind a running sweep is what packs.  Per-request
deadlines (``deadline_ms``) fail requests that would start too stale; a poison
request inside a batch fails only its own handle
(:func:`repro.runtime.predictor.run_packed_isolated`).

Equivalence guarantee: with ``dtype="float64"`` every served prediction is
bitwise identical to a sequential :meth:`RecurrentDagGnn.predict` call on
the original model — replicas round-trip float64 parameters exactly, and
packed execution is bitwise-equal by construction (see
:mod:`repro.runtime.pack`).  The differential fuzz suite
(``tests/serve/test_differential_fuzz.py``) enforces this under load.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.experiments.config import ServeConfig
from repro.models.base import Prediction, RecurrentDagGnn
from repro.nn.serialize import clone_module
from repro.runtime.predictor import cast_model, run_packed_isolated
from repro.runtime.plan import plan_for
from repro.serve.batching import (
    MicroBatcher,
    Request,
    ServeError,
    ServerClosed,
    validate_request,
    warm_plan,
)
from repro.serve.metrics import ServerMetrics

__all__ = ["Server", "ServeFuture"]


class ServeFuture:
    """Handle for one admitted request; resolves when its batch executes."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Prediction | None = None
        self._error: Exception | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, value: Prediction | None, error: Exception | None) -> None:
        self._value = value
        self._error = error
        self._event.set()

    def result(self, timeout: float | None = None) -> Prediction:
        """Block until resolved; raises the request's own failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def exception(self, timeout: float | None = None) -> Exception | None:
        """Block until resolved; the failure (or None on success)."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        return self._error


class Server:
    """Deadline-batched, multi-worker serving front-end.

    Args:
        model: the source model.  The server never mutates it — each
            worker serves from its own serialized-equal replica.
        config: a :class:`ServeConfig`; individual fields can be
            overridden via keyword arguments (``Server(model, workers=4)``).

    Example::

        with Server(model, workers=4, batch_size=8, max_latency_ms=25) as srv:
            futures = [srv.submit(g, wl) for g, wl in requests]
            results = [f.result() for f in futures]
            print(srv.metrics.format())
    """

    def __init__(
        self,
        model: RecurrentDagGnn,
        config: ServeConfig | None = None,
        **overrides,
    ) -> None:
        cfg = config or ServeConfig()
        if overrides:
            cfg = replace(cfg, **overrides)
        self.config = cfg
        self.model = model
        self.dtype = np.dtype(cfg.dtype)
        self.metrics = ServerMetrics()
        self._replicas = self._build_replicas()
        #: the batching policy; every call to it happens under ``_lock``.
        self._batcher = MicroBatcher(cfg, self.metrics)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._idle = threading.Condition(self._lock)
        permits = cfg.max_concurrent_sweeps
        if permits is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # platforms without affinity queries
                cpus = os.cpu_count() or 1
            permits = max(1, min(cfg.workers, cpus))
        self._sweep_permits = threading.Semaphore(permits)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(cfg.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests admitted but not yet claimed by a worker."""
        with self._lock:
            return self._batcher.pending

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def _closing(self) -> bool:
        return self._batcher.closing

    def submit(
        self,
        circuit: CircuitGraph | Netlist,
        workload,
        deadline_ms: float | None = None,
        block: bool = True,
    ) -> ServeFuture:
        """Admit one request; returns a :class:`ServeFuture`.

        When the admission queue holds ``max_pending`` requests, ``block``
        decides between waiting for space (default — closed-loop callers
        self-throttle) and failing fast with :class:`QueueFull`.
        ``deadline_ms`` overrides the config default; a request that is
        still queued when its deadline passes fails with
        :class:`DeadlineExceeded` instead of running stale.

        Raises :class:`ValueError` immediately on a workload/circuit PI
        mismatch and :class:`ServerClosed` after :meth:`close`.
        """
        graph = circuit if isinstance(circuit, CircuitGraph) else plan_for(circuit).graph
        validate_request(graph.num_pis, workload, deadline_ms)
        future = ServeFuture()
        with self._lock:
            while block and self._batcher.full:
                self._not_full.wait()
            self._batcher.admit(graph, workload, deadline_ms, future._resolve)
            pending = self._batcher.pending
            # Wake a worker only at the two actionable edges: a new oldest
            # request (someone must start the deadline watch) and a full
            # batch (someone should flush now).  Waking every worker on
            # every submit is pure GIL churn at high request rates.
            if pending == 1 or pending >= self.config.batch_size:
                self._not_empty.notify(1)
        return future

    def predict(self, circuit: CircuitGraph | Netlist, workload) -> Prediction:
        """Submit one request and block for its result."""
        return self.submit(circuit, workload).result()

    def predict_many(
        self, circuits: Sequence[CircuitGraph | Netlist], workloads: Sequence
    ) -> list[Prediction]:
        """Submit a batch of requests and block for all results, in order."""
        if len(circuits) != len(workloads):
            raise ValueError(
                f"{len(circuits)} circuits vs {len(workloads)} workloads"
            )
        futures = [self.submit(c, w) for c, w in zip(circuits, workloads)]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def _take_batch(self) -> list[Request] | None:
        """Claim the next micro-batch's live requests (possibly none, when
        all of it expired); ``None`` tells the worker to exit."""
        with self._lock:
            while (wait := self._batcher.wait_s()) is None or wait > 0:
                if wait is None and self._batcher.closing:
                    return None
                self._not_empty.wait(timeout=wait)
            live = self._batcher.claim()
            if self._batcher.pending:
                # A claim leaves the requests past batch_size behind; hand
                # the deadline watch to another worker before we go
                # compute, or the leftovers would wait out our whole sweep.
                self._not_empty.notify(1)
            self._not_full.notify_all()
        return live

    def _worker_loop(self, index: int) -> None:
        while True:
            live = self._take_batch()
            if live is None:
                return
            try:
                if live:
                    self._execute(self._replicas[index], live)
            except BaseException as exc:
                # run_packed_isolated already isolates per-member model
                # failures; anything reaching here is bookkeeping gone
                # wrong.  Resolve the claimed futures with the error so no
                # client blocks forever, and keep the worker alive.
                with self._lock:
                    self._batcher.fail(live, ServeError(f"worker error: {exc!r}"))
            finally:
                with self._lock:
                    if self._batcher.idle:
                        self._idle.notify_all()

    def _execute(self, replica: RecurrentDagGnn, live: list[Request]) -> None:
        with self._sweep_permits:
            started = self._batcher.clock()
            results = run_packed_isolated(
                replica,
                [req.payload for req in live],
                [req.workload for req in live],
                dtype=self.dtype,
            )
        with self._lock:
            self._batcher.finish(live, results, started)

    # ------------------------------------------------------------------
    def warm(self, circuit: CircuitGraph | Netlist) -> None:
        """Compile ``circuit``'s own plan (schedule, sweep windows and
        feature matrix) before traffic hits.

        Deployments that know their circuit structures call this at
        startup so the first request over each one pays no compile.
        """
        graph = circuit if isinstance(circuit, CircuitGraph) else plan_for(circuit).graph
        warm_plan(self.model, graph, self.dtype)

    def _build_replicas(self) -> list[RecurrentDagGnn]:
        return [
            cast_model(clone_module(self.model), self.dtype)
            for _ in range(self.config.workers)
        ]

    def refresh_parameters(self) -> None:
        """Re-sync every worker replica from the source model.

        Call after fine-tuning ``model``; fresh replicas are built as at
        construction and swapped into the workers' slots, so in-flight
        batches finish on the old weights and the next batch runs on the
        new ones.
        """
        self._replicas[:] = self._build_replicas()

    def drain(self, timeout: float | None = None) -> None:
        """Block until the queue is empty and in-flight batches resolved.

        The server stays open — this is a quiesce point (e.g. before
        reading metrics), not shutdown.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while not self._batcher.idle:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("drain timed out with requests in flight")
                self._idle.wait(timeout=remaining)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Graceful shutdown.  Idempotent.

        With ``drain=True`` (default) admitted requests are still served
        before the workers exit; with ``drain=False`` they fail with
        :class:`ServerClosed`.  Either way no new submissions are accepted
        from the moment close begins.  Concurrent closes compose toward
        the *stricter* one: ``close(drain=False)`` racing an in-progress
        draining close still fails everything left in the queue instead of
        silently letting the drain keep serving it.

        ``timeout`` bounds the whole shutdown, not each worker: the K
        joins share one deadline, so a stuck sweep delays :meth:`close` by
        at most ``timeout`` rather than ``K * timeout``.
        """
        with self._lock:
            self._batcher.close()
            if not drain:
                self._batcher.fail_pending(
                    ServerClosed("server closed before execution")
                )
            self._not_empty.notify_all()
            self._not_full.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.join(timeout=remaining)
        # A timed-out join leaves workers mid-sweep with futures pending:
        # report shutdown incomplete rather than pretending it finished.
        self._closed = all(not worker.is_alive() for worker in self._workers)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Asyncio front door over N model-worker *processes*.

The threaded :class:`repro.serve.Server` parallelizes packed sweeps only
as far as the GIL allows — K worker threads in one interpreter saturate
one core on the pure-Python glue between kernels.  The :class:`Gateway`
promotes the same architecture to processes:

* an **asyncio socket server** (one thread, one event loop) does
  everything the threaded front half did — admission control against
  ``max_pending`` (blocking admission is TCP backpressure: the gateway
  simply stops reading a connection until space frees), per-request
  deadlines, and deadline micro-batching, all by driving the same
  :class:`~repro.serve.batching.MicroBatcher` the threaded server drives;
* **worker processes** — a :class:`repro.runtime.workers.WorkerPool`
  running the :mod:`repro.serve.worker` message handler — each hold a
  model replica restored from the
  :func:`~repro.nn.serialize.dumps_state` byte round-trip; the pool owns
  spawn, handshake, segments and shutdown, the gateway owns what happens
  when a worker dies (fail typed, back off, respawn);
* **shared-memory arenas** carry per-request feature buffers in and
  prediction arrays out, so the request hot path crosses the process
  boundary without pickling bulk data; circuit structures ship to each
  worker once, keyed by content fingerprint.

Equivalence guarantee (enforced by ``tests/serve/test_differential_fuzz``):
with ``dtype="float64"`` every prediction served through the socket is
bitwise-identical to sequential :meth:`RecurrentDagGnn.predict` on the
source model.  Worker replicas round-trip float64 exactly, feature
vectors cross shared memory bit-for-bit, and packed execution is
bitwise-equal by construction.

Failure semantics: a worker death (including SIGKILL) surfaces as EOF on
its control pipe; every request in flight on it fails with the typed
:class:`~repro.serve.batching.WorkerDied` — clients never hang — and
the slot respawns in the background while the other workers keep
serving.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import numbers
import socket
import threading
import time
from dataclasses import replace

import numpy as np

from repro.circuit.graph import CircuitGraph, check_learnable
from repro.circuit.netlist import Netlist
from repro.experiments.config import ServeConfig
from repro.models.base import Prediction, RecurrentDagGnn
from repro.runtime.shm import collect_arrays, stage_arrays
from repro.runtime.workers import WorkerHandle, WorkerPool
from repro.serve import transport
from repro.serve.batching import (
    MicroBatcher,
    Request,
    ServeError,
    ServerClosed,
    WorkerDied,
    validate_request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.server import ServeFuture
from repro.serve.worker import FEATURES, RESULTS, make_handler
from repro.sim.workload import Workload

__all__ = ["Gateway", "GatewayClient"]


def _parse(payload: bytes) -> tuple | None:
    """``(op, req_id, args)`` of one client frame, or ``None`` when the
    bytes name no request an error reply could be addressed to."""
    try:
        msg = transport.decode(payload)
    except Exception:  # arbitrary bytes fail to unpickle in arbitrary ways
        return None
    if not isinstance(msg, tuple) or len(msg) < 2:
        return None
    return msg[0], msg[1], msg[2:]


class _Batch:
    __slots__ = ("batch_id", "requests", "t0")

    def __init__(self, batch_id, requests, t0):
        self.batch_id = batch_id
        self.requests = requests
        self.t0 = t0


class _Slot(WorkerHandle):
    """A worker slot plus the gateway's request-flow state for it."""

    def __init__(self, index: int) -> None:
        super().__init__(index)
        #: circuit fingerprints already shipped to the live process.
        self.shipped: set[str] = set()
        #: consecutive deaths without an intervening completed batch.
        self.restarts = 0
        #: bumped on every death so stale idle-queue entries can be dropped.
        self.generation = 0
        #: the one batch currently executing on this worker, or ``None``.
        self.inflight: _Batch | None = None
        self.warm_future: asyncio.Future | None = None


class Gateway:
    """Multi-process serving behind one asyncio socket front door.

    Args:
        model: source model; never mutated.  Each worker process restores
            its own replica from the serialized state.
        config: a :class:`ServeConfig`; fields can be overridden by
            keyword (``Gateway(model, workers=4, dtype="float32")``).

    Example::

        with Gateway(model, workers=4, batch_size=16) as gw:
            with gw.connect() as client:
                pred = client.predict(netlist, workload)
            print(gw.metrics.format())

    ``gw.address`` is the bound ``(host, port)``; any number of
    :class:`GatewayClient`\\ s (or a plain ``GET /metrics`` HTTP request)
    may connect to it.
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
        self.dtype = np.dtype(cfg.dtype)
        self.metrics = ServerMetrics()
        arena_bytes = max(1, int(cfg.shm_arena_mb * (1 << 20)))
        #: the worker pool; float32 serving shares one cast of the weights.
        self.supervisor = WorkerPool(
            model,
            make_handler,
            workers=cfg.workers,
            arena_bytes={FEATURES: arena_bytes, RESULTS: arena_bytes},
            error=ServeError,
            payload=cfg.dtype,
            param_dtype=np.float32 if self.dtype == np.float32 else None,
            mp_start_method=cfg.mp_start_method,
            name="serve-gw-worker",
            handle_cls=_Slot,
        )
        self.address: tuple[str, int] | None = None
        self._netlists: dict[str, Netlist] = {}
        #: the batching policy; touched on the loop thread only.
        self._batcher = MicroBatcher(cfg, self.metrics)
        self._closed = False
        self._loop_stopped = False
        self._close_lock = threading.Lock()
        self._batch_ids = itertools.count()
        self._startup_error: BaseException | None = None
        self._started = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop_main, name="serve-gateway", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self.supervisor.stop(timeout=5.0)
            raise self._startup_error

    # ------------------------------------------------------------------
    # loop lifecycle
    # ------------------------------------------------------------------
    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._startup())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            for task in asyncio.all_tasks(self._loop):
                task.cancel()
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens()
            )
            self._loop.close()

    async def _startup(self) -> None:
        # asyncio primitives must be created on their loop.
        self._wake = asyncio.Event()
        self._space = asyncio.Event()
        self._drained = asyncio.Event()
        self._idle: asyncio.Queue = asyncio.Queue()
        self._conns: set[asyncio.StreamWriter] = set()
        for handle in self.supervisor.handles:
            self._watch_worker(handle)
            self._idle.put_nowait((handle.generation, handle))
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._dispatcher_task = self._loop.create_task(self._dispatcher())

    # ------------------------------------------------------------------
    # client connections
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        wlock = asyncio.Lock()
        self._conns.add(writer)
        try:
            header = await reader.readexactly(len(transport.HTTP_PREFIX))
            if header == transport.HTTP_PREFIX:
                await self._handle_http(reader, writer)
                return
            # Those four bytes are the first half of a frame header.
            header += await reader.readexactly(8 - len(header))
            while True:
                length = int.from_bytes(header, "big")
                if length > transport.MAX_FRAME_BYTES:
                    return  # corrupt or hostile prefix: nothing to answer
                message = _parse(await reader.readexactly(length))
                if message is None:
                    return
                await self._handle_message(*message, writer, wlock)
                header = await reader.readexactly(8)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # EOF (also mid-frame) or reset: the client is gone
        finally:
            self._conns.discard(writer)
            writer.close()

    async def _handle_http(self, reader, writer) -> None:
        """``GET /metrics`` -> JSON snapshot; a request line with no path,
        or one past the reader's line limit -> 400; any other path -> 404."""
        try:
            words = (await reader.readline()).split()  # "<path> HTTP/1.x"
        except ValueError:  # longer than the StreamReader limit
            words = []
        if not words:
            writer.write(
                transport.http_response(
                    "400 Bad Request", b"bad request\n", "text/plain"
                )
            )
        elif words[0] in (b"/metrics", b"/metrics/"):
            body = json.dumps(self.metrics.snapshot(), default=float).encode()
            writer.write(transport.http_response("200 OK", body, "application/json"))
        else:
            writer.write(
                transport.http_response("404 Not Found", b"not found\n", "text/plain")
            )
        await writer.drain()
        writer.close()

    async def _respond(self, writer, wlock, message: tuple) -> None:
        try:
            async with wlock:
                await transport.write_frame(writer, transport.encode(message))
        except (ConnectionError, RuntimeError):
            pass  # client went away; nothing to deliver to

    async def _handle_message(self, op, req_id, args, writer, wlock) -> None:
        if op == "ping":
            await self._respond(writer, wlock, ("pong", req_id))
            return
        if op == "metrics":
            await self._respond(
                writer, wlock, ("metrics_result", req_id, self.metrics.snapshot())
            )
            return

        def respond(value, error):
            if error is not None:
                message = ("error", req_id, error)
            else:
                message = ("result", req_id, value.tr, value.lg)
            self._loop.create_task(self._respond(writer, wlock, message))

        if op != "predict":
            respond(None, ServeError(f"unknown op {op!r}"))
            return
        if not (
            len(args) == 4
            and isinstance(args[0], Netlist)
            and isinstance(args[1], Workload)
            and (args[2] is None or isinstance(args[2], numbers.Real))
            and isinstance(args[3], bool)
        ):
            respond(None, ServeError("malformed predict request"))
            return
        netlist, workload, deadline_ms, block = args
        try:
            fingerprint = self._admit_structure(netlist)
            validate_request(netlist.structure().num_pis, workload, deadline_ms)
        except ValueError as exc:  # NetlistError included
            respond(None, exc)
            return
        # Admission: blocking submitters get TCP backpressure (this
        # handler simply does not read the connection's next frame until
        # space frees), non-blocking ones bounce with QueueFull.
        while block and self._batcher.full:
            self._space.clear()
            await self._space.wait()
        try:
            self._batcher.admit(fingerprint, workload, deadline_ms, respond)
        except ServeError as exc:  # QueueFull, or ServerClosed once closing
            respond(None, exc)
            return
        self._wake.set()

    def _admit_structure(self, netlist: Netlist) -> str:
        """Fingerprint of ``netlist``, registered for shipping to workers.

        Raises the :class:`NetlistError` :meth:`Server.submit` raises for a
        netlist no worker could compile.  Equal fingerprints are equal
        structures, so only a structure's first netlist is checked.
        """
        structure = netlist.structure()
        fingerprint = structure.fingerprint()
        if fingerprint not in self._netlists:
            check_learnable(structure)
            self._netlists[fingerprint] = netlist
        return fingerprint

    # ------------------------------------------------------------------
    # batching + dispatch
    # ------------------------------------------------------------------
    async def _dispatcher(self) -> None:
        try:
            await self._dispatch_loop()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - must never hang clients
            import traceback

            traceback.print_exc()
            self._batcher.fail_pending(
                ServeError(f"gateway dispatcher crashed: {exc!r}")
            )
            self._drained.set()

    async def _dispatch_loop(self) -> None:
        while True:
            wait = self._batcher.wait_s()
            if wait is None and self._batcher.closing:
                self._maybe_drained()
                return
            if wait is None or wait > 0:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=wait)
                except asyncio.TimeoutError:
                    pass
                continue
            handle = await self._claim_idle_worker()
            if handle is None:  # closing with no live workers left
                self._batcher.fail_pending(ServerClosed("gateway is shut down"))
                self._maybe_drained()
                return
            # The queue may have been failed (a no-drain close) while we
            # waited for the worker; claim() then returns nothing.
            live = self._batcher.claim()
            self._space.set()
            await self._dispatch(handle, live)

    async def _claim_idle_worker(self) -> _Slot | None:
        """Next live idle worker; skips entries gone stale after a death."""
        while True:
            generation, handle = await self._idle.get()
            if (
                handle is not None
                and handle.conn is not None
                and handle.generation == generation
            ):
                return handle
            if self._batcher.closing and not any(
                h.conn is not None for h in self.supervisor.handles
            ):
                return None

    async def _dispatch(self, handle: _Slot, live: list[Request]) -> None:
        if not live:
            self._idle.put_nowait((handle.generation, handle))
            self._maybe_drained()
            return
        try:
            for req in live:
                if req.payload not in handle.shipped:
                    handle.conn.send(
                        ("structure", req.payload, self._netlists[req.payload])
                    )
                    handle.shipped.add(req.payload)
            # Feature buffers ride the shared-memory arena (fall back to
            # inline copies only if a giant batch overflows it).
            features, _ = stage_arrays(
                handle.arenas[FEATURES], [req.workload.pi_probs for req in live]
            )
            members = [
                (req.payload, req.workload.name, req.workload.seed) for req in live
            ]
            batch_id = next(self._batch_ids)
            handle.inflight = _Batch(batch_id, live, self._batcher.clock())
            handle.conn.send(("batch", batch_id, features, members))
        except (OSError, BrokenPipeError, ValueError):
            # The pipe died under us; the EOF watcher runs the restart
            # path — here we only fail this batch's requests typed.
            handle.inflight = None
            self._batcher.fail(live, WorkerDied("worker died before executing batch"))
            self._maybe_drained()
        except Exception as exc:
            # Nothing reached the worker as a batch: the failure costs these
            # requests, never the dispatcher, and the worker stays in service.
            handle.inflight = None
            self._batcher.fail(live, ServeError(f"batch dispatch failed: {exc!r}"))
            self._idle.put_nowait((handle.generation, handle))
            self._maybe_drained()

    # ------------------------------------------------------------------
    # worker I/O (loop thread)
    # ------------------------------------------------------------------
    def _watch_worker(self, handle: _Slot) -> None:
        self._loop.add_reader(
            handle.conn.fileno(), self._on_worker_readable, handle
        )

    def _unwatch_worker(self, handle: _Slot) -> None:
        if handle.conn is not None:
            try:
                self._loop.remove_reader(handle.conn.fileno())
            except (OSError, ValueError):  # pragma: no cover
                pass

    def _on_worker_readable(self, handle: _Slot) -> None:
        try:
            if not handle.conn.poll():
                return
            msg = handle.conn.recv()
        except (EOFError, OSError):
            self._unwatch_worker(handle)
            self._loop.create_task(self._worker_died(handle))
            return
        if msg[0] == "done":
            self._finish_batch(handle, msg[1], msg[2])
        elif msg[0] == "warmed":
            future = handle.warm_future
            if future is not None and not future.done():
                future.set_result(None)

    def _finish_batch(self, handle: _Slot, batch_id, metas) -> None:
        batch = handle.inflight
        if batch is None or batch.batch_id != batch_id:  # pragma: no cover
            return
        handle.inflight = None
        outcomes: list[Prediction | Exception] = []
        for meta in metas:
            if meta[0] == "err":
                outcomes.append(meta[1])
            else:
                tr, lg = collect_arrays(handle.arenas[RESULTS], meta, self.dtype)
                outcomes.append(Prediction(tr=tr, lg=lg))
        self._batcher.finish(batch.requests, outcomes, batch.t0)
        handle.restarts = 0  # a completed batch ends a crash loop
        self._idle.put_nowait((handle.generation, handle))
        # Nothing in flight may make the pending requests due at once:
        # wake the dispatcher instead of letting it sleep out the timer.
        self._wake.set()
        self._maybe_drained()

    async def _worker_died(self, handle: _Slot) -> None:
        """Crash policy, run on EOF from the control pipe (a SIGKILL closes
        the worker's end at once — no polling loop needed): in-flight
        requests fail fast with the typed :class:`WorkerDied` instead of
        hanging their clients, and the slot respawns after a **bounded
        exponential backoff** (``restart_backoff_ms`` doubling up to
        ``restart_backoff_max_ms`` per consecutive death or failed spawn):
        a worker that dies once restarts almost immediately, a crash-
        looping worker cannot consume the host.
        """
        self.metrics.incr("worker_deaths")
        batch = handle.inflight
        handle.inflight = None
        if batch is not None:
            self._batcher.fail(
                batch.requests,
                WorkerDied("worker process died while executing this request"),
            )
            self._wake.set()
        if handle.warm_future is not None and not handle.warm_future.done():
            handle.warm_future.set_exception(
                WorkerDied("worker process died before it finished warming")
            )
        handle.generation += 1
        self.supervisor.reap(handle)
        self._maybe_drained()
        base = self.config.restart_backoff_ms / 1000.0
        cap = self.config.restart_backoff_max_ms / 1000.0
        while not self._batcher.closing:
            handle.restarts += 1
            # Exponent bounded: 2.0 ** 1024 is an OverflowError, not inf.
            await asyncio.sleep(min(base * 2.0 ** min(handle.restarts - 1, 32), cap))
            if self._batcher.closing:
                return
            try:
                await self._loop.run_in_executor(
                    None, self.supervisor.spawn, handle
                )
            except ServeError:
                continue
            handle.shipped = set()
            self.metrics.incr("restarts")
            self._watch_worker(handle)
            self._idle.put_nowait((handle.generation, handle))
            return

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------
    def warm(self, circuit: CircuitGraph | Netlist) -> None:
        """Ship ``circuit`` to every worker and compile its own plan there.

        The multi-process analogue of :meth:`Server.warm`: after this, the
        first request over this structure pays neither the structure
        transfer nor a plan compile in any worker.  Raises
        :class:`WorkerDied` if a worker dies before it has warmed.
        """
        netlist = circuit.netlist if isinstance(circuit, CircuitGraph) else circuit
        asyncio.run_coroutine_threadsafe(self._warm(netlist), self._loop).result()

    async def _warm(self, netlist: Netlist) -> None:
        fingerprint = self._admit_structure(netlist)
        # Claim every worker so warms don't interleave with batches.
        claimed = []
        for _ in self.supervisor.handles:
            handle = await self._claim_idle_worker()
            if handle is None:
                break
            claimed.append((handle.generation, handle))
        try:
            acks = []
            for _, handle in claimed:
                if fingerprint not in handle.shipped:
                    handle.conn.send(("structure", fingerprint, netlist))
                    handle.shipped.add(fingerprint)
                handle.warm_future = self._loop.create_future()
                acks.append(handle.warm_future)
                handle.conn.send(("warm", fingerprint))
            if acks:
                done, _ = await asyncio.wait(acks, timeout=300.0)
                died = [ack.exception() for ack in done if ack.exception()]
                if died:
                    raise died[0]
        finally:
            for generation, handle in claimed:
                handle.warm_future = None
                # Back under the generation it was claimed at: a slot that
                # died meanwhile is re-queued by its respawn, and this
                # stale entry is skipped.
                self._idle.put_nowait((generation, handle))

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _maybe_drained(self) -> None:
        if self._batcher.closing and self._batcher.idle:
            self._drained.set()

    async def _begin_close(self, drain: bool) -> None:
        self._batcher.close()
        self._server.close()
        if not drain:
            # Stricter close wins, even against an in-progress drain.
            self._batcher.fail_pending(
                ServerClosed("gateway closed before execution")
            )
        self._wake.set()
        self._space.set()
        # Wake a dispatcher that may be blocked waiting for an idle worker
        # (e.g. the sole worker died and its respawn loop saw closing).
        self._idle.put_nowait((-1, None))
        self._maybe_drained()

    async def _await_drained(self, timeout: float | None) -> None:
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            self._batcher.fail_pending(ServerClosed("gateway close timed out"))
            self._drained.set()

    async def _close_connections(self) -> None:
        """Hang-proofing: closing every client socket turns any request a
        client sent but the gateway never admitted into a clean EOF, which
        the client-side reader converts to ServerClosed failures."""
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        return self._batcher.pending

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Graceful shutdown; see :meth:`Server.close` for the semantics.

        ``timeout`` is one shared budget across draining and stopping all
        worker processes — never ``K x timeout``.  Unlike threads, worker
        *processes* that overstay the budget are killed, so close always
        returns with the host clean (arenas unlinked, no zombies).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._started.is_set() and self._startup_error is None:
            # Lock-free pre-check: _loop_stopped is monotonic and the
            # authoritative test re-runs under _close_lock below; a stale
            # False here only submits an idempotent drain coroutine.
            if not self._loop.is_closed() and not self._loop_stopped:  # reprolint: disable=REP003 -- double-checked under _close_lock below
                asyncio.run_coroutine_threadsafe(
                    self._begin_close(drain), self._loop
                ).result(timeout=60.0)
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                asyncio.run_coroutine_threadsafe(
                    self._await_drained(remaining), self._loop
                ).result(timeout=None if remaining is None else remaining + 60.0)
                asyncio.run_coroutine_threadsafe(
                    self._close_connections(), self._loop
                ).result(timeout=60.0)
        with self._close_lock:
            if not self._loop_stopped:
                self._loop_stopped = True
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=60.0)
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        self.supervisor.stop(timeout=remaining)
        self._closed = True

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def connect(self, timeout: float | None = 120.0) -> "GatewayClient":
        """A new blocking client connected to this gateway's socket."""
        assert self.address is not None
        return GatewayClient(self.address, timeout=timeout)


class GatewayClient:
    """Blocking, thread-safe client for one gateway connection.

    Many threads may share one client — requests are multiplexed by id
    over the single socket, and a background reader resolves each
    :class:`~repro.serve.server.ServeFuture` as its response arrives.
    Typed server-side failures (:class:`QueueFull`,
    :class:`DeadlineExceeded`, :class:`WorkerDied`, :class:`ServerClosed`)
    re-raise from ``future.result()`` exactly as the threaded server
    raises them in-process.
    """

    def __init__(self, address: tuple[str, int], timeout: float | None = 120.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._futures: dict[int, ServeFuture] = {}
        self._futures_lock = threading.Lock()
        self._ids = itertools.count()
        self._closed = False
        self._dead = False  # reader saw EOF: the gateway side is gone
        self._reader = threading.Thread(
            target=self._reader_loop, name="gateway-client-reader", daemon=True
        )
        self._reader.start()
        # Handshake: a TCP connect only proves the kernel queued us; the
        # pong proves the gateway's handler is attached to this socket —
        # which in turn guarantees a later gateway close closes it (EOF)
        # instead of leaving the client waiting on a half-open session.
        self.ping(timeout=timeout)

    # ------------------------------------------------------------------
    def _reader_loop(self) -> None:
        try:
            while True:
                payload = transport.recv_frame(self._sock)
                if payload is None:
                    break
                msg = transport.decode(payload)
                op, req_id = msg[0], msg[1]
                with self._futures_lock:
                    future = self._futures.pop(req_id, None)
                if future is None:
                    continue
                if op == "result":
                    future._resolve(Prediction(tr=msg[2], lg=msg[3]), None)
                elif op == "error":
                    future._resolve(None, msg[2])
                else:  # metrics_result / pong payloads
                    future._resolve(msg[2] if len(msg) > 2 else True, None)
        except OSError:
            pass
        finally:
            with self._futures_lock:
                self._dead = True
                pending = list(self._futures.values())
                self._futures.clear()
            for future in pending:
                future._resolve(
                    None, ServerClosed("gateway connection closed")
                )

    def _request(self, message: tuple, req_id: int) -> ServeFuture:
        future = ServeFuture()
        with self._futures_lock:
            if self._closed:
                raise ServerClosed("client is closed")
            if self._dead:
                raise ServerClosed("gateway connection closed")
            self._futures[req_id] = future
        try:
            with self._send_lock:
                transport.send_frame(self._sock, transport.encode(message))
        except OSError as exc:
            with self._futures_lock:
                self._futures.pop(req_id, None)
            raise ServerClosed(f"gateway connection lost: {exc}") from exc
        return future

    # ------------------------------------------------------------------
    def submit(
        self,
        circuit: CircuitGraph | Netlist,
        workload,
        deadline_ms: float | None = None,
        block: bool = True,
    ) -> ServeFuture:
        """Admit one request over the socket; returns a future.

        Mirrors :meth:`Server.submit`: raises :class:`ValueError`
        immediately on a PI mismatch; with ``block=False`` the future
        fails with :class:`QueueFull` when the gateway's admission queue
        is at capacity.
        """
        netlist = circuit.netlist if isinstance(circuit, CircuitGraph) else circuit
        validate_request(netlist.structure().num_pis, workload, deadline_ms)
        req_id = next(self._ids)
        return self._request(
            ("predict", req_id, netlist, workload, deadline_ms, block), req_id
        )

    def predict(self, circuit, workload, timeout: float | None = 600.0) -> Prediction:
        """Submit one request and block for its result."""
        return self.submit(circuit, workload).result(timeout=timeout)

    def predict_many(self, circuits, workloads, timeout: float | None = 600.0):
        """Submit a batch and block for all results, in order."""
        if len(circuits) != len(workloads):
            raise ValueError(
                f"{len(circuits)} circuits vs {len(workloads)} workloads"
            )
        futures = [self.submit(c, w) for c, w in zip(circuits, workloads)]
        return [f.result(timeout=timeout) for f in futures]

    def metrics(self, timeout: float | None = 60.0) -> dict:
        """The gateway's :meth:`ServerMetrics.snapshot` over the wire."""
        req_id = next(self._ids)
        return self._request(("metrics", req_id), req_id).result(timeout=timeout)

    def ping(self, timeout: float | None = 60.0) -> bool:
        req_id = next(self._ids)
        return bool(self._request(("ping", req_id), req_id).result(timeout=timeout))

    def close(self) -> None:
        with self._futures_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=10.0)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

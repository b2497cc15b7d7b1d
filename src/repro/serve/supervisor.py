"""Worker-process lifecycle for the gateway: spawn, monitor, restart.

The supervisor owns everything about worker *processes* that is not
request flow: the explicit multiprocessing context (forkserver preferred,
spawn fallback — see :mod:`repro.runtime.mp` for why default fork is
banned), the one-time serialization of the model (structure pickle + npz
state bytes, the same round-trip threaded replicas use), the shared
float32 parameter block, and the per-worker shared-memory arenas.

Crash policy: a worker death is detected by the gateway as EOF on the
control pipe (a SIGKILL closes the pipe's worker end immediately — no
polling loop needed).  The supervisor then respawns the slot with
**bounded exponential backoff** (``restart_backoff_ms`` doubling up to
``restart_backoff_max_ms``): a worker that dies once restarts almost
immediately, a crash-looping worker cannot consume the host, and either
way in-flight requests fail fast with the typed :class:`WorkerDied`
instead of hanging their clients.  Arenas are *gateway-owned* and reused
across restarts, so a dying worker can never leak a ``/dev/shm`` entry.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np

from repro.nn.serialize import dumps_state
from repro.runtime.mp import resolve_mp_context
from repro.runtime.shm import ShmBlock, publish_param_block
from repro.serve.batching import ServeError
from repro.serve.worker import WorkerInit, worker_main

__all__ = ["WorkerDied", "WorkerHandle", "Supervisor"]


class WorkerDied(ServeError):
    """A worker process died with this request in flight.

    The request may or may not have executed — the caller must treat it
    as failed and retry idempotently if desired.  The gateway restarts
    the worker slot in the background.
    """


class WorkerHandle:
    """One worker slot: process + control pipe + its arenas."""

    __slots__ = (
        "index",
        "proc",
        "conn",
        "feat_arena",
        "res_arena",
        "shipped",
        "restarts",
        "started_at",
        "generation",
        "inflight",
        "warm_future",
    )

    def __init__(self, index: int, feat_arena: ShmBlock, res_arena: ShmBlock):
        self.index = index
        self.proc = None
        self.conn = None
        self.feat_arena = feat_arena
        self.res_arena = res_arena
        #: circuit fingerprints already shipped to the live process.
        self.shipped: set[str] = set()
        #: consecutive deaths without an intervening completed batch.
        self.restarts = 0
        self.started_at = 0.0
        #: bumped on every death so stale idle-queue entries can be dropped.
        self.generation = 0
        #: the one batch currently executing on this worker, or ``None``.
        self.inflight = None
        self.warm_future = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class Supervisor:
    """Spawns and replaces the gateway's worker processes."""

    def __init__(self, model, config) -> None:
        self.config = config
        self.ctx = resolve_mp_context(config.mp_start_method)
        # One serialization, N workers: the structure pickle carries the
        # module tree, the npz bytes re-load the parameters through the
        # exact round-trip that makes replicas float64-bitwise-equal.
        self._model_pickle = pickle.dumps(model)
        self._state_npz = dumps_state(model.state_dict())
        self._param_block: ShmBlock | None = None
        self._param_layout: list | None = None
        if np.dtype(config.dtype) == np.float32:
            self._param_block, self._param_layout = publish_param_block(
                model, np.float32
            )
        self.handles: list[WorkerHandle] = []
        # Serializes spawn against stop: a respawn racing shutdown must
        # either complete before arenas are unlinked (stop then reaps the
        # fresh process too) or fail fast with ServeError — never attach
        # to a name that no longer exists.
        self._lifecycle = threading.Lock()
        self._stopping = False

    # ------------------------------------------------------------------
    def start(self) -> list[WorkerHandle]:
        arena_bytes = max(1, int(self.config.shm_arena_mb * (1 << 20)))
        for index in range(self.config.workers):
            handle = WorkerHandle(
                index,
                ShmBlock.create(arena_bytes, tag=f"w{index}-feat"),
                ShmBlock.create(arena_bytes, tag=f"w{index}-res"),
            )
            self.spawn(handle)
            self.handles.append(handle)
        return self.handles

    def spawn(self, handle: WorkerHandle, timeout: float = 120.0) -> None:
        """(Re)start the process for ``handle`` and wait for its ready ack."""
        with self._lifecycle:
            if self._stopping:
                raise ServeError("supervisor is stopping")
            self._spawn_locked(handle, timeout)

    def _spawn_locked(self, handle: WorkerHandle, timeout: float) -> None:
        init = WorkerInit(
            model_pickle=self._model_pickle,
            state_npz=self._state_npz,
            dtype=self.config.dtype,
            feature_arena=handle.feat_arena.name,
            result_arena=handle.res_arena.name,
            param_block=(
                None
                if self._param_block is None
                else (self._param_block.name, self._param_layout)
            ),
        )
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=worker_main,
            args=(child_conn, init),
            name=f"serve-gw-worker-{handle.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(timeout):
            proc.kill()
            raise ServeError(f"worker {handle.index} never sent ready")
        msg = parent_conn.recv()
        if msg[0] != "ready":  # pragma: no cover - protocol bug
            proc.kill()
            raise ServeError(f"worker {handle.index} bad handshake: {msg!r}")
        handle.proc = proc
        handle.conn = parent_conn
        handle.shipped = set()
        handle.started_at = time.monotonic()

    # ------------------------------------------------------------------
    def backoff_s(self, handle: WorkerHandle) -> float:
        """Restart delay for this slot's next respawn (bounded doubling)."""
        base = self.config.restart_backoff_ms / 1000.0
        cap = self.config.restart_backoff_max_ms / 1000.0
        return min(base * (2.0 ** max(0, handle.restarts - 1)), cap)

    def note_death(self, handle: WorkerHandle) -> float:
        """Record a death; returns the backoff to wait before respawning."""
        handle.restarts += 1
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            handle.conn = None
        if handle.proc is not None:
            handle.proc.join(timeout=5.0)
        return self.backoff_s(handle)

    def note_success(self, handle: WorkerHandle) -> None:
        """A completed batch resets the slot's crash-loop counter."""
        handle.restarts = 0

    # ------------------------------------------------------------------
    def stop(self, timeout: float | None = None) -> bool:
        """Stop every worker; one shared deadline, stragglers get killed.

        Returns True when every process exited (possibly by force).
        Arenas and the parameter block are closed and unlinked here — the
        supervisor owns every named segment, so gateway shutdown leaves
        ``/dev/shm`` exactly as it found it.
        """
        with self._lifecycle:
            self._stopping = True
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.handles:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        for handle in self.handles:
            if handle.proc is None:
                continue
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            handle.proc.join(timeout=remaining)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
        stopped = all(h.proc is None or not h.proc.is_alive() for h in self.handles)
        for handle in self.handles:
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.conn = None
            handle.feat_arena.close()
            handle.feat_arena.unlink()
            handle.res_arena.close()
            handle.res_arena.unlink()
        if self._param_block is not None:
            self._param_block.close()
            self._param_block.unlink()
        return stopped

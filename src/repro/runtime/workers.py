"""The worker-process runtime shared by the serving gateway and DDP.

A :class:`WorkerPool` is N OS processes, each holding one model replica,
driven by a coordinator over one control pipe per worker.  It owns the
*mechanism* both multi-process paths need and nothing else:

* **replica serialization, once** — the structure pickle carries the
  module tree and the :func:`repro.nn.serialize.dumps_state` npz bytes
  re-load the parameters through the exact round-trip threaded replicas
  use, so every worker's float64 parameters are bitwise-identical to the
  source model's;
* **every named segment** — an optional parameter block in one dtype
  (float32 serving weights, float64 training broadcast) that all workers
  map read-only, and per-slot arenas that outlive the slot's processes.
  The pool creates them and :meth:`WorkerPool.stop` unlinks them, so a
  worker dying at any point — SIGKILL included — cannot leak a
  ``/dev/shm`` entry;
* **spawn, handshake, shutdown** — an explicit forkserver/spawn context
  (never default fork, see :mod:`repro.runtime.mp`), ``Pipe`` +
  ``Process``, a ``("ready", pid)`` ack awaited under a timeout (every
  way that can fail raises the caller's typed error with the child reaped
  and the pipe closed), and ``("stop",)`` under one shared join deadline.

What to do when a worker *dies* is policy and stays with the caller,
which sees the death as EOF on ``handle.conn``: the gateway fails the
in-flight requests, backs off and calls :meth:`WorkerPool.spawn` again;
the trainer raises ``DdpError`` and resumes from its last checkpoint.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.nn.serialize import dumps_state, loads_state
from repro.runtime.mp import resolve_mp_context
from repro.runtime.shm import ShmBlock, attach_param_block, publish_param_block

__all__ = ["WorkerInit", "WorkerHandle", "WorkerPool", "worker_main"]


@dataclass
class WorkerInit:
    """Everything a worker process needs, in picklable form: the replica
    (structure pickle + state npz), the pool's parameter block as
    ``(shm_name, layout, dtype)`` or ``None``, this slot's arenas as
    ``{tag: shm_name}``, and the caller's ``make_handler``/``payload``
    (see :class:`WorkerPool`)."""

    model_pickle: bytes
    state_npz: bytes
    param_block: tuple[str, list, object] | None
    arenas: dict[str, str]
    make_handler: Callable
    payload: object


def worker_main(conn, init: WorkerInit) -> None:
    """Child side: restore the replica, attach the segments, build the
    caller's handler, ack, then answer messages until ``stop`` or EOF."""
    replica = pickle.loads(init.model_pickle)
    replica.load_state_dict(loads_state(init.state_npz))
    blocks: list[ShmBlock] = []
    handler = param_views = None
    try:
        if init.param_block is not None:
            block, param_views = attach_param_block(*init.param_block)
            blocks.append(block)
        arenas = {tag: ShmBlock.attach(name) for tag, name in init.arenas.items()}
        blocks.extend(arenas.values())
        handler = init.make_handler(replica, param_views, arenas, init.payload)
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg[0] == "stop":
                return
            reply = handler(msg)
            if reply is not None:
                conn.send(reply)
    finally:
        # Views first: a mapping with a live ndarray over it cannot close.
        handler = param_views = None
        for block in blocks:
            block.close()
        conn.close()


class WorkerHandle:
    """One worker slot: the current process, its control pipe, its arenas.

    Callers subclass this to keep their per-slot protocol state next to
    the pipe it describes; the pool only touches the fields below.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        #: parent end of the control pipe; ``None`` while the slot is dead.
        self.conn = None
        #: ``{tag: ShmBlock}`` — pool-owned, reused across respawns.
        self.arenas: dict[str, ShmBlock] = {}

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """Spawns, hand-shakes and stops N model-replica worker processes.

    Args:
        model: source model; serialized once, never mutated.
        make_handler: module-level ``(replica, param_views, arenas,
            payload) -> handler``, run once in each child before its
            ``ready``; ``handler(msg)`` returns the reply to send or
            ``None``.  ``arenas`` maps tag to attached :class:`ShmBlock`.
        workers: number of slots; all are spawned before ``__init__``
            returns, and a failure tears the whole pool down.
        arena_bytes: ``{tag: nbytes}`` — the arenas every slot gets.
        error: exception type raised for every spawn/handshake failure.
        payload: the caller's start-up data for ``make_handler``.
        param_dtype: publish the parameters in this dtype as one shared
            block (``None`` = no block).  ``param_block``/``param_layout``
            expose it to a coordinator that rewrites it.
        mp_start_method: forwarded to :func:`resolve_mp_context`.
        name: process-name prefix (``"<name>-<index>"``).
        handle_cls: the :class:`WorkerHandle` subclass to make slots of.
        spawn_timeout: seconds to wait for each initial ``ready``.
    """

    def __init__(
        self,
        model,
        make_handler: Callable,
        *,
        workers: int,
        arena_bytes: dict[str, int],
        error: type[Exception],
        payload: object = None,
        param_dtype=None,
        mp_start_method: str | None = None,
        name: str = "worker",
        handle_cls: type[WorkerHandle] = WorkerHandle,
        spawn_timeout: float = 120.0,
    ) -> None:
        self.error = error
        self.name = name
        self.ctx = resolve_mp_context(mp_start_method)
        self.param_block: ShmBlock | None = None
        self.param_layout: list | None = None
        self.handles: list[WorkerHandle] = []
        # Serializes spawn against stop: a respawn racing shutdown must
        # either complete before arenas are unlinked (stop then reaps the
        # fresh process too) or fail fast with the typed error — never
        # attach to a name that no longer exists.
        self._lifecycle = threading.Lock()
        self._stopping = False
        try:
            param = None
            if param_dtype is not None:
                self.param_block, self.param_layout = publish_param_block(
                    model, param_dtype
                )
                param = (self.param_block.name, self.param_layout, param_dtype)
            #: the per-spawn record, minus the slot's arenas.
            self._init = WorkerInit(
                pickle.dumps(model),
                dumps_state(model.state_dict()),
                param,
                {},
                make_handler,
                payload,
            )
            for index in range(workers):
                handle = handle_cls(index)
                self.handles.append(handle)
                for tag, nbytes in arena_bytes.items():
                    handle.arenas[tag] = ShmBlock.create(
                        nbytes, tag=f"w{index}-{tag}"
                    )
                self.spawn(handle, spawn_timeout)
        except BaseException:
            self.stop(timeout=5.0)
            raise

    # ------------------------------------------------------------------
    def spawn(self, handle: WorkerHandle, timeout: float = 120.0) -> None:
        """(Re)start the process for ``handle`` and wait for its ready ack.

        On failure the child is killed and joined, the pipe is closed and
        ``self.error`` is raised; ``handle`` stays dead (``conn`` is
        ``None``), ready for another attempt.
        """
        with self._lifecycle:
            if self._stopping:
                raise self.error(f"{self.name} pool is stopping")
            arenas = {tag: arena.name for tag, arena in handle.arenas.items()}
            parent_conn, child_conn = self.ctx.Pipe()
            proc = self.ctx.Process(
                target=worker_main,
                args=(child_conn, replace(self._init, arenas=arenas)),
                name=f"{self.name}-{handle.index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            failure = None
            try:
                # poll() is also true at EOF — a child that died before
                # its ack — and recv() then raises instead of returning.
                if not parent_conn.poll(timeout):
                    failure = "never sent ready"
                elif parent_conn.recv()[0] != "ready":  # pragma: no cover
                    failure = "sent a bad handshake"
            except (EOFError, OSError):
                failure = "died before sending ready"
            if failure is not None:
                proc.kill()
                proc.join(timeout=5.0)
                parent_conn.close()
                raise self.error(f"{proc.name} {failure}")
            handle.proc = proc
            handle.conn = parent_conn

    def reap(self, handle: WorkerHandle, timeout: float = 5.0) -> None:
        """Release the parent side of a dead worker: close the pipe, join."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            handle.conn = None
        if handle.proc is not None:
            handle.proc.join(timeout=timeout)

    # ------------------------------------------------------------------
    def stop(self, timeout: float | None = None) -> bool:
        """Stop every worker (one shared deadline, stragglers get killed)
        and unlink every segment; True when every process exited.
        Idempotent; later :meth:`spawn` calls are refused."""
        with self._lifecycle:
            self._stopping = True
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.handles:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except OSError:
                    pass
        for handle in self.handles:
            if handle.proc is not None:
                handle.proc.join(
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if handle.proc.is_alive():
                    handle.proc.kill()
            self.reap(handle)
            for arena in handle.arenas.values():
                arena.close()
                arena.unlink()
        if self.param_block is not None:
            self.param_block.close()
            self.param_block.unlink()
        return not any(handle.alive for handle in self.handles)

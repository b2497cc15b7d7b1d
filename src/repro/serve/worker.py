"""Worker-process entry point for the multi-process serving gateway.

A worker is one OS process holding one model replica.  It is spawned
through an explicit forkserver/spawn context (never default fork — see
:mod:`repro.runtime.mp`), receives its picklable :class:`WorkerInit`
bundle, and restores the replica through the exact
:func:`repro.nn.serialize.dumps_state` npz byte round-trip the threaded
server uses for replica cloning — so a worker's float64 parameters are
bitwise-identical to the source model's and the gateway inherits the
serving layer's differential guarantee for free.

The control channel is a :class:`multiprocessing.Connection`; bulk data
does not travel on it.  Feature buffers arrive as offsets into the
gateway-owned shared-memory feature arena (the worker builds
:class:`~repro.sim.workload.Workload` views straight over the mapping —
no copy), and predictions leave through the result arena the same way.
When the serving dtype is float32 the worker additionally maps the
supervisor's published parameter-shadow block read-only, so all K workers
share one physical copy of the cast weights.

Message protocol (gateway -> worker)::

    ("structure", fingerprint, netlist)   # ship a circuit structure once
    ("warm", fingerprint, [sizes...])     # precompile ladder packs
    ("batch", batch_id, [(fingerprint, wl_spec), ...])
    ("stop",)

and back (worker -> gateway)::

    ("ready", pid)
    ("warmed", fingerprint)               # ladder packs compiled
    ("done", batch_id, [meta, ...])       # meta per member, input order:
                                          #   ("shm", tr_off, tr_shape, lg_off, lg_shape)
                                          #   ("inline", tr, lg)   # arena overflow
                                          #   ("err", exception)

where ``wl_spec`` is ``("shm", offset, n_pis, name, seed)`` or
``("inline", probs, name, seed)`` for requests whose features did not fit
the arena.  A worker serves exactly one batch at a time, which is what
makes arena reuse safe: the gateway never overwrites a region before the
``done`` for the batch using it has arrived.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

__all__ = ["WorkerInit", "worker_main"]


@dataclass
class WorkerInit:
    """Everything a worker process needs, in picklable form.

    Attributes:
        model_pickle: pickled model object (structure + config).
        state_npz: :func:`~repro.nn.serialize.dumps_state` payload; loaded
            over the unpickled structure so replica parameters go through
            the same npz round-trip as threaded-server replicas.
        dtype: serving dtype (``"float64"`` | ``"float32"``).
        feature_arena: shm name of the gateway->worker feature arena.
        result_arena: shm name of the worker->gateway result arena.
        param_block: ``(shm_name, layout)`` of the shared float32 shadow,
            or ``None`` (float64 serving needs no cast).
    """

    model_pickle: bytes
    state_npz: bytes
    dtype: str
    feature_arena: str
    result_arena: str
    param_block: tuple[str, list] | None = None


def _install_shared_shadow(model, name: str, layout: list, dtype):
    """Register a shm-backed :class:`ParameterShadow` for ``model``.

    The runtime's shadow registry normally casts parameters per process;
    pointing the cached shadow's arrays at the supervisor's published
    block instead means every worker reads the same physical pages.
    Returns the attached block (kept alive for the views' lifetime).
    """
    from repro.runtime.predictor import _SHADOW_LOCK, _SHADOWS, ParameterShadow
    from repro.runtime.shm import attach_param_block

    block, views = attach_param_block(name, layout, dtype)
    shadow = ParameterShadow(model, dtype)
    for view, cast in zip(views, shadow._cast):
        if view.shape != cast.shape:  # pragma: no cover - supervisor bug
            raise ValueError(
                f"shared shadow shape {view.shape} != parameter {cast.shape}"
            )
    shadow._cast = views
    with _SHADOW_LOCK:
        _SHADOWS.setdefault(model, {})[np.dtype(dtype)] = shadow
    return block


def _picklable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round-trip, else a ServeError stand-in."""
    from repro.serve.batching import ServeError

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServeError(f"{type(exc).__name__}: {exc}")


def worker_main(conn, init: WorkerInit) -> None:
    """Blocking worker loop; returns when told to stop or the pipe closes."""
    from repro.nn.serialize import loads_state
    from repro.runtime.plan import plan_for
    from repro.runtime.predictor import run_packed_isolated
    from repro.runtime.shm import ShmBlock, write_arrays
    from repro.serve.batching import ServeError, warm_ladder
    from repro.sim.workload import Workload

    replica = pickle.loads(init.model_pickle)
    replica.load_state_dict(loads_state(init.state_npz))
    dtype = np.dtype(init.dtype)

    features = ShmBlock.attach(init.feature_arena)
    results = ShmBlock.attach(init.result_arena)
    param_block = None
    if init.param_block is not None:
        param_block = _install_shared_shadow(
            replica, init.param_block[0], init.param_block[1], dtype
        )

    graphs: dict[str, object] = {}
    conn.send(("ready", os.getpid()))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            op = msg[0]
            if op == "stop":
                return
            if op == "structure":
                _, fingerprint, netlist = msg
                # plan_for also warms the process-wide plan cache, so the
                # first batch over this structure skips compilation.
                graphs[fingerprint] = plan_for(netlist).graph
                continue
            if op == "warm":
                # The process-local mirror of Server.warm.
                _, fingerprint, sizes = msg
                warm_ladder(replica, graphs[fingerprint], sizes, dtype)
                conn.send(("warmed", fingerprint))
                continue
            if op != "batch":  # pragma: no cover - protocol bug
                conn.send(("done", None, [("err", ServeError(f"bad op {op!r}"))]))
                continue
            _, batch_id, members = msg
            batch_graphs, workloads, probs = [], [], None
            try:
                for fingerprint, wl_spec in members:
                    batch_graphs.append(graphs[fingerprint])
                    if wl_spec[0] == "shm":
                        _, offset, n_pis, name, seed = wl_spec
                        probs = features.ndarray(offset, (n_pis,), np.float64)
                    else:
                        _, probs, name, seed = wl_spec
                    workloads.append(Workload(probs, name=name, seed=seed))
                outcomes = run_packed_isolated(
                    replica, batch_graphs, workloads, dtype=dtype
                )
            except Exception as exc:  # pragma: no cover - defensive
                err = _picklable(exc)
                workloads = probs = None  # release arena views before reuse
                conn.send(("done", batch_id, [("err", err)] * len(members)))
                continue
            metas, cursor = [], 0
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    metas.append(("err", _picklable(outcome)))
                    continue
                layout = write_arrays(
                    results, [outcome.tr, outcome.lg], offset=cursor
                )
                if layout is None:
                    metas.append(("inline", outcome.tr, outcome.lg))
                else:
                    (tr_off, tr_shape), (lg_off, lg_shape) = layout
                    metas.append(("shm", tr_off, tr_shape, lg_off, lg_shape))
                    cursor = lg_off + outcome.lg.nbytes
            # Drop every ndarray view over the arenas before replying:
            # the gateway may rewrite the regions immediately, and a
            # lingering view would make our mmap close a BufferError.
            batch_graphs = workloads = probs = outcomes = None
            conn.send(("done", batch_id, metas))
    finally:
        features.close()
        results.close()
        if param_block is not None:
            param_block.close()
        conn.close()

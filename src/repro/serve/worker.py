"""Gateway-side message handler of a :mod:`repro.runtime.workers` process.

A gateway worker is one OS process holding one model replica.  Spawning,
the replica's npz byte round-trip (float64 parameters bitwise-identical
to the source model's, so the gateway inherits the serving layer's
differential guarantee for free), segment attachment and the receive
loop are the shared runtime's; this module is what the process *does*
with a message.

The control channel is a :class:`multiprocessing.Connection`; bulk data
does not travel on it.  Feature buffers arrive through the pool-owned
shared-memory feature arena and predictions leave through the result
arena, both in the one :func:`~repro.runtime.shm.stage_arrays` /
:func:`~repro.runtime.shm.collect_arrays` shape.  When the serving dtype
is float32 the worker maps the pool's published parameter block
read-only and its replica's parameters *are* those views, so all K
workers share one physical copy of the cast weights.

Message protocol (gateway -> worker)::

    ("structure", fingerprint, netlist)   # ship a circuit structure once
    ("warm", fingerprint)                 # compile the structure's own plan
    ("batch", batch_id, features, [(fingerprint, wl_name, wl_seed), ...])

and back (worker -> gateway)::

    ("warmed", fingerprint)               # plan compiled
    ("done", batch_id, [meta, ...])       # meta per member, input order:
                                          #   ("shm", [(tr_off, tr_shape), (lg_off, lg_shape)])
                                          #   ("inline", [tr, lg])   # arena overflow
                                          #   ("err", exception)

where ``features`` is the same ``("shm", layout)`` / ``("inline", arrays)``
meta over the members' PI-probability vectors.  A worker serves exactly
one batch at a time, which is what makes arena reuse safe: the gateway
never overwrites a region before the ``done`` for the batch using it has
arrived, and the worker copies its features out before it runs.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.runtime.plan import plan_for
from repro.runtime.predictor import run_packed_isolated
from repro.runtime.shm import collect_arrays, stage_arrays
from repro.serve.batching import ServeError, warm_plan
from repro.sim.workload import Workload

__all__ = ["FEATURES", "RESULTS", "make_handler"]

#: Arena tags of a gateway worker slot.
FEATURES, RESULTS = "feat", "res"


def _picklable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round-trip, else a ServeError stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServeError(f"{type(exc).__name__}: {exc}")


def make_handler(replica, param_views, arenas, dtype):
    """The worker's message handler; ``dtype`` is the serving dtype."""
    dtype = np.dtype(dtype)
    if param_views is not None:
        # The replica becomes a serving-dtype model over the shared pages,
        # once, before any batch runs.
        for p, view in zip(replica.parameters(), param_views, strict=True):
            if view.shape != p.data.shape:  # pragma: no cover - pool bug
                raise ValueError(
                    f"shared parameter shape {view.shape} != {p.data.shape}"
                )
            p.data = view
    features, results = arenas[FEATURES], arenas[RESULTS]
    #: fingerprint -> compiled graph, or the exception compiling it raised
    #: (admission rejects those; one that slips through fails its requests).
    graphs: dict[str, object] = {}

    def handle(msg: tuple) -> tuple | None:
        op = msg[0]
        if op == "structure":
            _, fingerprint, netlist = msg
            # plan_for also warms the process-wide plan cache, so the
            # first batch over this structure skips compilation.
            try:
                graphs[fingerprint] = plan_for(netlist).graph
            except Exception as exc:
                graphs[fingerprint] = exc
            return None
        if op == "warm":
            # The process-local mirror of Server.warm.
            _, fingerprint = msg
            if not isinstance(graphs[fingerprint], Exception):
                warm_plan(replica, graphs[fingerprint], dtype)
            return ("warmed", fingerprint)
        if op != "batch":  # pragma: no cover - protocol bug
            return ("done", None, [("err", ServeError(f"bad op {op!r}"))])
        _, batch_id, feature_meta, members = msg
        try:
            # Owned copies (a PI vector is a few hundred bytes): no view
            # over an arena outlives this line, so the gateway may rewrite
            # the region and our mmap may close at any time.
            probs = collect_arrays(features, feature_meta, np.float64)
            outcomes = [graphs[fingerprint] for fingerprint, _, _ in members]
            live = [
                i for i, g in enumerate(outcomes) if not isinstance(g, Exception)
            ]
            ran = run_packed_isolated(
                replica,
                [outcomes[i] for i in live],
                [
                    Workload(probs[i], name=members[i][1], seed=members[i][2])
                    for i in live
                ],
                dtype=dtype,
            )
            for i, outcome in zip(live, ran):
                outcomes[i] = outcome
        except Exception as exc:  # pragma: no cover - defensive
            return ("done", batch_id, [("err", _picklable(exc))] * len(members))
        metas, cursor = [], 0
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                metas.append(("err", _picklable(outcome)))
                continue
            meta, cursor = stage_arrays(
                results, [outcome.tr, outcome.lg], offset=cursor
            )
            metas.append(meta)
        return ("done", batch_id, metas)

    return handle

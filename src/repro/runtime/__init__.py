"""Batched inference runtime: compiled plans, packing, dtype fast path.

The runtime layer sits between the circuit/model substrates and the
serving-oriented callers (tasks, experiments, examples, benchmarks):

* :mod:`repro.runtime.plan` — :class:`GraphPlan` compilation and the
  process-wide content-hash-keyed LRU plan cache;
* :mod:`repro.runtime.pack` — multi-circuit packing into disjoint
  super-graph plans;
* :mod:`repro.runtime.predictor` — :class:`BatchedPredictor` (many
  circuits cut into packed sweeps on the calling thread; queued,
  deadline-flushed serving is :mod:`repro.serve`, which builds on this
  layer) and the float32 fast path over cast model replicas
  (:func:`cast_model`);
* :mod:`repro.runtime.trainstep` — packed training minibatches
  (:func:`pack_samples` / :func:`train_step`) sharing the same plan and
  pack caches as serving;
* :mod:`repro.runtime.workers` — :class:`WorkerPool`, the one
  worker-process runtime (spawn, ready handshake, shm ownership,
  shutdown; :mod:`repro.runtime.mp` contexts, :mod:`repro.runtime.shm`
  arenas) under the serving gateway and data-parallel training;
* :mod:`repro.runtime.ddp` — deterministic data-parallel training:
  gradient-accumulation groups sharded over a worker pool with a
  fixed-order pairwise-tree all-reduce, bitwise-identical at any worker
  count.

Submodules are imported lazily so low-level modules (``repro.models``)
can import :mod:`repro.runtime.plan` without dragging in the predictor
(which itself depends on ``repro.models``).
"""

from __future__ import annotations

_EXPORTS = {
    # plan
    "GraphPlan": "repro.runtime.plan",
    "baseline_batches": "repro.runtime.plan",
    "plan_for": "repro.runtime.plan",
    "fingerprint_of": "repro.runtime.plan",
    "clear_plan_cache": "repro.runtime.plan",
    "configure_plan_cache": "repro.runtime.plan",
    "plan_cache_info": "repro.runtime.plan",
    # pack
    "PackedPlan": "repro.runtime.pack",
    "pack_graphs": "repro.runtime.pack",
    "clear_pack_cache": "repro.runtime.pack",
    "configure_pack_cache": "repro.runtime.pack",
    "pack_cache_info": "repro.runtime.pack",
    # trainstep
    "PackedBatch": "repro.runtime.trainstep",
    "StepResult": "repro.runtime.trainstep",
    "pack_samples": "repro.runtime.trainstep",
    "train_step": "repro.runtime.trainstep",
    # ddp
    "DdpError": "repro.runtime.ddp",
    "tree_reduce": "repro.runtime.ddp",
    "reduce_gradients": "repro.runtime.ddp",
    "BatchGrads": "repro.runtime.ddp",
    "LocalGradExecutor": "repro.runtime.ddp",
    "DdpGradExecutor": "repro.runtime.ddp",
    # predictor
    "cast_model": "repro.runtime.predictor",
    "predict_one": "repro.runtime.predictor",
    "predict_packed": "repro.runtime.predictor",
    "run_packed_isolated": "repro.runtime.predictor",
    "BatchedPredictor": "repro.runtime.predictor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

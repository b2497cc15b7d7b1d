"""Process-parallel, cache-backed construction of labelled datasets.

The serial builders in :mod:`repro.train.dataset` simulate one circuit at
a time in the trainer's process.  The :class:`DataFactory` keeps their
exact label semantics (bitwise — simulation is deterministic and runs the
same code in every path) while adding the two properties the ROADMAP's
scale goal needs.  Cache *misses* run on the block-stepped simulation
engine (``repro.sim`` default), which is float64-bitwise-identical to the
per-cycle reference loop — cold-path labelling got ~2x (fault-free) to
~7x (fault-sim) faster without any ``CACHE_VERSION`` bump, and entries
written by either engine hit for both.

* **fan-out** — labelling jobs are distributed over a
  ``concurrent.futures.ProcessPoolExecutor``.  Each *unique* netlist is
  pickled **once** into the pool's initializer payload and registered in
  the workers under its content fingerprint; the per-task job args carry
  only fingerprints, workloads and configs.  A 100k-node design labelled
  under 32 workloads therefore crosses the process boundary one time,
  not 32.  Workers compile locally and return plain label arrays, so no
  simulator state or graph object ever crosses back.  Uncached jobs are
  grouped into **packed sweeps** (:mod:`repro.sim.pack`) of up to
  ``pack_size`` circuits, amortizing per-level dispatch across the batch
  without moving a label bit.  There is one scheduling loop and one job
  function: a group of one is what ``simulate``/``simulate_with_faults``
  run for a single circuit, and the in-process path is the pooled path
  minus the pool (members are netlists instead of fingerprints);
* **memoization** — results are stored in a content-addressed
  :class:`~repro.data.cache.LabelCache` keyed by
  ``(fingerprint, workload, SimConfig[, FaultConfig])``, so repeated
  trainer runs, benchmark regenerations and CI jobs never re-simulate
  identical work.

Samples built here are *lean* by default (``keep_sim=False``): extras do
not pin ``SimResult``/``FaultSimResult`` objects (and through them whole
netlists) per sample — opt back in where a consumer genuinely needs them
(the Grannite fine-tune reads ``extras["sim"]``).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.circuit.netlist import Netlist
from repro.data.cache import LabelCache, label_key
from repro.runtime.mp import resolve_mp_context
from repro.sim.faults import FaultConfig, FaultSimResult
from repro.sim.logicsim import SimConfig, SimResult
from repro.sim.pack import simulate_packed, simulate_with_faults_packed
from repro.sim.workload import Workload
from repro.train.dataset import CircuitSample, dataset_workloads

__all__ = ["FactoryConfig", "DataFactory", "LabelWorkerError"]


# ----------------------------------------------------------------------
# worker entry points (module-level: picklable by ProcessPoolExecutor)
# ----------------------------------------------------------------------

#: Per job kind, the result type and its label fields in cached-entry
#: order (``np.savez`` writes them in dict order, so the order is part of
#: the on-disk bytes).
_LABEL_FIELDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "sim": (SimResult, ("logic_prob", "tr01_prob", "tr10_prob", "cycles", "streams")),
    "fault": (
        FaultSimResult,
        ("err01", "err10", "reliability", "observed0", "observed1"),
    ),
}
#: Scalar fields, cached as 0-d arrays of this dtype; every other field
#: is an array cached as is.
_SCALAR_DTYPE = {"cycles": np.int64, "streams": np.int64, "reliability": np.float64}


def _to_labels(kind: str, res: SimResult | FaultSimResult) -> dict[str, np.ndarray]:
    """The cacheable label dict of one result."""
    labels = {name: getattr(res, name) for name in _LABEL_FIELDS[kind][1]}
    for name in labels.keys() & _SCALAR_DTYPE.keys():
        labels[name] = np.asarray(labels[name], dtype=_SCALAR_DTYPE[name])
    return labels


def _from_labels(kind: str, labels: dict[str, np.ndarray], nl: Netlist):
    """The result object a label dict was made from, bound to ``nl``."""
    cls, names = _LABEL_FIELDS[kind]
    fields = {name: labels[name] for name in names}
    for name in fields.keys() & _SCALAR_DTYPE.keys():
        fields[name] = fields[name].item()
    return cls(netlist=nl, **fields)


#: Worker-side netlist registry, filled by the pool initializer before any
#: job runs: ``{fingerprint: netlist}``.  Pool tasks reference circuits by
#: fingerprint, so one netlist crosses the process boundary exactly once
#: per pool no matter how many (workload, config) jobs reuse it.
_WORKER_NETLISTS: dict[str, Netlist] = {}


def _init_worker_netlists(payload: bytes) -> None:
    """Pool initializer: install this pool's netlists in the worker."""
    _WORKER_NETLISTS.clear()
    _WORKER_NETLISTS.update(pickle.loads(payload))


def _registered(fp: str) -> Netlist:
    try:
        return _WORKER_NETLISTS[fp]
    except KeyError:
        raise RuntimeError(
            f"netlist {fp[:12]} not registered in this worker — fingerprint "
            "jobs only run in pools started with _init_worker_netlists"
        ) from None


def _label_job(
    kind: str,
    members: list[str] | list[Netlist],
    workloads: list[Workload],
    sim_config: SimConfig,
    fault_config: FaultConfig | None,
) -> list[dict[str, np.ndarray]]:
    """Label one group of (circuit, workload) pairs in one packed sweep.

    ``members`` are fingerprints of registered netlists in a pool worker
    and the netlists themselves in-process.  A group of one is
    call-for-call what ``simulate``/``simulate_with_faults`` do and stays
    off the sim-pack LRU.
    """
    nls = [_registered(m) if isinstance(m, str) else m for m in members]
    cache = len(nls) > 1
    if kind == "sim":
        results = simulate_packed(nls, workloads, sim_config, cache=cache)
    else:
        results = simulate_with_faults_packed(
            nls, workloads, sim_config, fault_config, cache=cache
        )
    return [_to_labels(kind, r) for r in results]


class LabelWorkerError(RuntimeError):
    """A worker process of the labelling pool died before returning."""


@dataclass(frozen=True)
class FactoryConfig:
    """Knobs of the data factory.

    Attributes:
        workers: simulation processes.  ``None`` sizes the pool to the
            CPUs this process may use; ``0``/``1`` runs serially in-process
            (no pool, still cached).  Results are independent of the
            worker count — scheduling never touches label values.
        cache_dir: on-disk label-cache directory (``None`` = memory only).
        memory_entries: in-process LRU capacity (label dicts).
        keep_sim: default for stashing full ``SimResult``/``FaultSimResult``
            objects in ``extras`` — off in the factory path, overridable
            per build.
        pack_size: maximum circuits fused into one packed simulation
            sweep (:mod:`repro.sim.pack`) per job; ``0``/``1`` makes every
            group a group of one.  Packing never changes label values —
            packed sweeps are bitwise-identical to per-circuit runs — so
            cache keys and contents are independent of this knob.
        mp_start_method: start method for the simulation pool's worker
            processes.  ``None`` resolves through
            :func:`repro.runtime.mp.resolve_mp_context` (forkserver, else
            spawn) — never the platform-default ``fork``, which would
            snapshot any lock currently held by another thread of this
            process (a live :class:`repro.serve.Server`, a logging
            handler, ...) in its locked state and deadlock the child.
    """

    workers: int | None = None
    cache_dir: str | os.PathLike | None = None
    memory_entries: int = 512
    keep_sim: bool = False
    pack_size: int = 8
    mp_start_method: str | None = None

    def resolve_workers(self) -> int:
        if self.workers is not None:
            return max(0, int(self.workers))
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1


class DataFactory:
    """Parallel, cache-backed labelling of circuits under workloads."""

    def __init__(self, config: FactoryConfig | None = None, **overrides) -> None:
        config = config or FactoryConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config
        self.cache = LabelCache(
            cache_dir=config.cache_dir, memory_entries=config.memory_entries
        )

    # ------------------------------------------------------------------
    # single-job cached entry points (pipelines: power GT, reliability GT)
    # ------------------------------------------------------------------
    def simulate(
        self, nl: Netlist, workload: Workload, sim_config: SimConfig | None = None
    ) -> SimResult:
        """Cached :func:`repro.sim.logicsim.simulate` (bitwise-identical)."""
        return self.simulate_many([nl], [workload], sim_config)[0]

    def simulate_faults(
        self,
        nl: Netlist,
        workload: Workload,
        sim_config: SimConfig | None = None,
        fault_config: FaultConfig | None = None,
    ) -> FaultSimResult:
        """Cached :func:`repro.sim.faults.simulate_with_faults`."""
        return self.simulate_faults_many(
            [nl], [workload], sim_config, fault_config
        )[0]

    def simulate_many(
        self,
        circuits: list[Netlist],
        workloads: list[Workload],
        sim_config: SimConfig | None = None,
    ) -> list[SimResult]:
        """Cached batch simulation; misses ride packed sweeps.

        Bitwise-identical to calling :meth:`simulate` per pair (packed
        execution never changes label bits), but uncached work is fused
        into ``pack_size``-circuit sweeps and fanned out across the pool.
        """
        results = self._run_many(
            "sim", circuits, workloads, sim_config or SimConfig(), None
        )
        return [_from_labels("sim", lb, nl) for lb, nl in zip(results, circuits)]

    def simulate_faults_many(
        self,
        circuits: list[Netlist],
        workloads: list[Workload],
        sim_config: SimConfig | None = None,
        fault_config: FaultConfig | None = None,
    ) -> list[FaultSimResult]:
        """Cached batch fault simulation; misses ride packed sweeps."""
        results = self._run_many(
            "fault",
            circuits,
            workloads,
            sim_config or SimConfig(),
            fault_config or FaultConfig(),
        )
        return [_from_labels("fault", lb, nl) for lb, nl in zip(results, circuits)]

    # ------------------------------------------------------------------
    # dataset builders (drop-in for repro.train.dataset)
    # ------------------------------------------------------------------
    def build(
        self,
        circuits: list[Netlist],
        sim_config: SimConfig | None = None,
        seed: int = 0,
        workloads: list[Workload] | None = None,
        keep_sim: bool | None = None,
    ) -> list[CircuitSample]:
        """Parallel equivalent of :func:`repro.train.dataset.build_dataset`."""
        keep = self.config.keep_sim if keep_sim is None else keep_sim
        wls = dataset_workloads(circuits, seed, workloads)
        results = self.simulate_many(circuits, wls, sim_config)
        return [
            CircuitSample.from_sim(res, wl, keep) for res, wl in zip(results, wls)
        ]

    def build_reliability(
        self,
        circuits: list[Netlist],
        sim_config: SimConfig | None = None,
        fault_config: FaultConfig | None = None,
        seed: int = 0,
        workloads: list[Workload] | None = None,
        keep_sim: bool | None = None,
    ) -> list[CircuitSample]:
        """Parallel equivalent of
        :func:`repro.train.dataset.build_reliability_dataset`."""
        keep = self.config.keep_sim if keep_sim is None else keep_sim
        wls = dataset_workloads(circuits, seed, workloads)
        results = self.simulate_faults_many(circuits, wls, sim_config, fault_config)
        return [
            CircuitSample.from_faults(res, wl, keep)
            for res, wl in zip(results, wls)
        ]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _run_many(
        self,
        kind: str,
        circuits: list[Netlist],
        workloads: list[Workload],
        sim_config: SimConfig,
        fault_config: FaultConfig | None,
    ) -> list[dict[str, np.ndarray]]:
        """Resolve one labelling job per (circuit, workload), cache-first.

        Jobs whose digest is already cached are served from the cache;
        the rest are grouped into packed sweeps of up to ``pack_size``
        circuits (group size shrinks, down to a group of one, when that
        keeps more workers busy) and every group runs :func:`_label_job`
        — across the process pool when more than one worker has a group
        to run, else in this process.  Pooled runs ship each unique
        netlist once via the pool initializer and reference it by
        fingerprint in the job args.  Result order always matches the
        input order, and duplicate digests within one call are simulated
        once.  Neither packing nor scheduling ever touches label values.
        """
        fps = [nl.fingerprint() for nl in circuits]
        keys = [
            label_key(kind, fp, wl, sim_config, fault_config)
            for fp, wl in zip(fps, workloads)
        ]
        results: dict[str, dict[str, np.ndarray]] = {}
        pending: list[int] = []
        pending_keys: set[str] = set()
        for i, key in enumerate(keys):
            if key in results or key in pending_keys:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
            else:
                pending.append(i)
                pending_keys.add(key)

        if pending:
            workers = min(self.config.resolve_workers(), len(pending))
            pack = min(
                max(1, self.config.pack_size),
                -(-len(pending) // max(workers, 1)),
            )
            groups = [
                pending[j : j + pack] for j in range(0, len(pending), pack)
            ]
            workers = min(workers, len(groups))
            members = fps if workers > 1 else circuits
            member_groups = [[members[i] for i in grp] for grp in groups]
            workload_groups = [[workloads[i] for i in grp] for grp in groups]
            job = partial(
                _label_job, kind, sim_config=sim_config, fault_config=fault_config
            )
            if workers > 1:
                try:
                    with ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=resolve_mp_context(self.config.mp_start_method),
                        initializer=_init_worker_netlists,
                        initargs=(self._pending_payload(circuits, fps, pending),),
                    ) as pool:
                        grouped = list(
                            pool.map(
                                job,
                                member_groups,
                                workload_groups,
                                chunksize=len(groups) // (4 * workers) or 1,
                            )
                        )
                except (BrokenProcessPool, BrokenPipeError) as exc:
                    raise LabelWorkerError(
                        "a labelling worker process died before returning its "
                        "labels; the usual cause is a calling script without an "
                        "`if __name__ == \"__main__\":` guard, which every worker "
                        "re-imports and so starts labelling again"
                    ) from exc
            else:
                grouped = list(map(job, member_groups, workload_groups))
            fresh = (labels for batch in grouped for labels in batch)
            for i, labels in zip(pending, fresh):
                results[keys[i]] = labels
                self.cache.put(keys[i], labels)
        return [results[key] for key in keys]

    @staticmethod
    def _pending_payload(
        circuits: list[Netlist], fps: list[str], pending: list[int]
    ) -> bytes:
        """One pickle of the unique netlists the pool's workers will need."""
        uniq: dict[str, Netlist] = {}
        for i in pending:
            uniq.setdefault(fps[i], circuits[i])
        return pickle.dumps(uniq, protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def stats(self):
        """Label-cache hit/miss counters (see :class:`CacheStats`)."""
        return self.cache.stats

"""Workload ``label_corpus``: netlists in, simulation/fault labels out.

Three families of 150-300-node AIG sub-circuits (the paper's Table I
shape) in size-balanced chunks of 8 (one packed sweep per call).  A cycle
takes a fresh cache directory and, per chunk: **base** — a cold
``DataFactory`` labels the chunk (``build`` then ``build_reliability``),
simulating and writing the disk cache, the process-wide sim-pack cache
cleared first; **alt** — ``WARM_READS`` times, a *fresh* factory on that
directory re-requests the chunk, so every read is a disk hit and nothing
is simulated.  Every cycle repeats the same calls on the same chunks from
the same cold state, so a call's repeats can be compared.

Shallow graphs: per-level Python overhead, ``sim.pack`` packing and cache
writes do the work when cold; the warm phase uses the same ``data`` layer
for reads only, so a gain for writes that costs reads shows.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.data import DataFactory, FactoryConfig, LabelCache, label_key
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig, compile_netlist
from repro.sim.pack import (
    clear_sim_pack_cache,
    pack_circuits,
    sim_pack_cache_info,
    simulate_packed,
    simulate_with_faults_packed,
)
from repro.train.dataset import (
    build_dataset,
    build_reliability_dataset,
    dataset_workloads,
)

from harness import Ops, digest_arrays, phase, seed_int, seed_sequence
from inputs import balanced_chunks, matched_subcircuits
from tracer import Tracer

NAME = "label_corpus"


WARM_READS = 4


def sizes(seconds: float) -> dict:
    """Work per run; ~0.4 s per cold chunk and ~0.045 s per warm read."""
    return {
        "chunk": 8,
        "chunks": 3 if seconds >= 5 else 1,
        "cycles": max(2, round(0.55 * seconds)),
    }


def setup(seed: int, size: dict, tracer: Tracer) -> dict:
    circ_seq, chunk_seq, pick_seq = seed_sequence(seed, NAME).spawn(3)
    n = size["chunk"] * size["chunks"]
    with tracer.span("circuit.generate"):
        circuits = matched_subcircuits(circ_seq, n // 3, 150, 300)
    chunks = balanced_chunks(circuits, size["chunk"])
    return {
        "chunks": chunks,
        "chunk_seeds": [seed_int(s) for s in chunk_seq.spawn(len(chunks))],
        "verify_chunk": seed_int(pick_seq) % len(chunks),
        "fingerprints": [nl.fingerprint() for nl in circuits],
    }


def _same_labels(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.target_tr, y.target_tr)
        and np.array_equal(x.target_lg, y.target_lg)
        for x, y in zip(a, b)
    )


def run(inp: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    chunks, seeds = inp["chunks"], inp["chunk_seeds"]
    calls = ("build", "build_reliability")
    cold_kinds = {f"{c}.chunk{k}": [] for k in range(len(chunks)) for c in calls}
    warm_kinds = {name: [] for name in cold_kinds}
    cold_op, warm_op = [], []
    first_labels: list = []
    first_dir = None
    pack0 = sim_pack_cache_info()
    cold_stats = []
    disk_hits = mem_hits = misses = evictions = 0

    def label(factory, ci: int, run: str, kinds: dict, op: list):
        """``build`` then ``build_reliability`` of chunk ``ci``, each timed."""
        t0 = time.perf_counter()
        with tracer.span("data.build", run=run):
            sim = factory.build(chunks[ci], seed=seeds[ci])
        t1 = time.perf_counter()
        with tracer.span("data.build_reliability", run=run):
            rel = factory.build_reliability(chunks[ci], seed=seeds[ci])
        t2 = time.perf_counter()
        kinds[f"build.chunk{ci}"].append(t1 - t0)
        kinds[f"build_reliability.chunk{ci}"].append(t2 - t1)
        op.append(t2 - t0)
        return sim, rel

    for cycle in range(size["cycles"]):
        cache_dir = Path(tempfile.mkdtemp(prefix=f"labels-{cycle}-", dir=workdir))
        for ci, chunk in enumerate(chunks):
            # base: nothing cached anywhere, simulate and write the disk cache
            clear_sim_pack_cache()
            cold = DataFactory(FactoryConfig(workers=0, cache_dir=cache_dir))
            sim, rel = label(cold, ci, f"cold-{cycle}-{ci}", cold_kinds, cold_op)
            ops.record(len(sim) == len(chunk) and len(rel) == len(chunk), "short chunk")
            cold_stats.append((cold.stats, len(chunk)))
            if cycle == 0:
                first_labels.append((sim, rel))
            else:
                ops.record(
                    _same_labels(sim, first_labels[ci][0])
                    and _same_labels(rel, first_labels[ci][1]),
                    f"cold labels of cycle {cycle} differ from cycle 0 (chunk {ci})",
                )
            # alt: fresh factories on the populated directory, disk reads only
            for read in range(WARM_READS):
                warm = DataFactory(FactoryConfig(workers=0, cache_dir=cache_dir))
                wsim, wrel = label(
                    warm, ci, f"warm-{cycle}-{ci}-{read}", warm_kinds, warm_op
                )
                ops.record(
                    _same_labels(wsim, sim) and _same_labels(wrel, rel),
                    f"warm labels differ from cold (cycle {cycle}, chunk {ci})",
                )
                stats = warm.stats
                disk_hits += stats.disk_hits
                mem_hits += stats.memory_hits
                misses += stats.misses
                evictions += stats.evictions
        if cycle == 0:
            first_dir = cache_dir  # the traced run's replay reads it
        else:
            shutil.rmtree(cache_dir)
    pack1 = sim_pack_cache_info()
    ops.record(
        all(st.misses == st.puts == 2 * n for st, n in cold_stats),
        "a cold factory found labels in its cache",
    )
    ops.record(misses == 0, f"{misses} warm-phase cache misses")

    # packed factory labels == the serial reference builders, one chunk
    vi = inp["verify_chunk"]
    ref_sim = build_dataset(chunks[vi], seed=seeds[vi], keep_sim=False)
    ref_rel = build_reliability_dataset(chunks[vi], seed=seeds[vi], keep_sim=False)
    ops.record(
        _same_labels(first_labels[vi][0], ref_sim)
        and _same_labels(first_labels[vi][1], ref_rel),
        f"packed factory labels differ from serial builders (chunk {vi})",
    )

    per_chunk = 2 * len(chunks[0])  # labels one chunk op yields
    reads = disk_hits + mem_hits + misses
    sim_cfg = SimConfig()
    pack_looked = (pack1.hits - pack0.hits) + (pack1.misses - pack0.misses)

    def chunk_phase(kinds: dict, op: list, what: str) -> dict:
        # the op is one chunk: both calls, averaged over the chunks
        return phase(
            kinds={
                name: {"weight": 1.0 / len(chunks), "samples": samples}
                for name, samples in kinds.items()
            },
            work=per_chunk, op_s=op,
            total_work=per_chunk * len(op), wall_s=sum(op), what=what,
        )

    return {
        "base": chunk_phase(
            cold_kinds, cold_op,
            f"cold build + build_reliability of a chunk of {len(chunks[0])}",
        ),
        "alt": chunk_phase(
            warm_kinds, warm_op,
            "the same two calls on a fresh factory over the populated disk cache",
        ),
        "digest": digest_arrays(
            arr
            for sim, rel in first_labels
            for sample in (*sim, *rel)
            for arr in (sample.target_tr, sample.target_lg)
        ),
        "cache_dir": first_dir,
        # what replay() mirrors: one cold pass and one warm read of every chunk
        "composite_s": sum(cold_op[: len(chunks)]) + sum(warm_op[:: WARM_READS][: len(chunks)]),
        "layer": {
            "sim.pack_cache_hit_share": (pack1.hits - pack0.hits) / max(1, pack_looked),
            "sim.node_cycles": 2
            * size["cycles"]
            * sum(len(nl) for chunk in chunks for nl in chunk)
            * (sim_cfg.cycles + sim_cfg.warmup),
            "data.cache_disk_hit_share": disk_hits / max(1, reads),
            "data.cache_mem_hit_share": mem_hits / max(1, reads),
            "data.cache_evictions": evictions,
            "data.cache_bytes_on_disk": sum(
                f.stat().st_size for f in first_dir.glob("*/*.npz")
            ),
        },
    }


def _keys(kind, chunk, seed, tracer: Tracer):
    """The per-call preamble of ``DataFactory._run_many``."""
    sim_cfg = SimConfig()
    fault_cfg = FaultConfig() if kind == "fault" else None
    with tracer.span("circuit.fingerprint"):
        fps = [nl.fingerprint() for nl in chunk]
    with tracer.span("sim.workload_gen"):
        wls = dataset_workloads(chunk, seed)
    with tracer.span("data.label_key"):
        keys = [label_key(kind, fp, wl, sim_cfg, fault_cfg) for fp, wl in zip(fps, wls)]
    return wls, keys


def _stored(kind, res) -> dict:
    """The label dict the factory caches for one result (its field names)."""
    if kind == "sim":
        return {
            "logic_prob": res.logic_prob,
            "tr01_prob": res.tr01_prob,
            "tr10_prob": res.tr10_prob,
            "cycles": np.asarray(res.cycles, dtype=np.int64),
            "streams": np.asarray(res.streams, dtype=np.int64),
        }
    return {
        "err01": res.err01,
        "err10": res.err10,
        "reliability": np.asarray(res.reliability, dtype=np.float64),
        "observed0": res.observed0,
        "observed1": res.observed1,
    }


def replay(inp: dict, result: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> None:
    """Time the layer calls ``DataFactory.build*`` makes, on the same inputs.

    Mirrors one cold pass (fingerprints, workloads, keys, then compile +
    pack + packed sweep per ``pack_size`` group and label kind, cache
    writes, graph builds) and one warm sweep (keys, disk reads, graph
    builds) — what ``result["composite_s"]`` timed as whole calls.
    """
    sim_cfg, fault_cfg = SimConfig(), FaultConfig()
    pack_size = FactoryConfig().pack_size
    scratch_dir = Path(tempfile.mkdtemp(prefix="replay-", dir=workdir))
    scratch = LabelCache(cache_dir=scratch_dir)
    disk = LabelCache(cache_dir=result["cache_dir"])
    clear_sim_pack_cache()
    for ci, (chunk, seed) in enumerate(zip(inp["chunks"], inp["chunk_seeds"])):
        for kind in ("sim", "fault"):
            with tracer.span("bench.replay_cold", run=f"replay-cold-{ci}"):
                wls, keys = _keys(kind, chunk, seed, tracer)
                values = []
                for lo in range(0, len(chunk), pack_size):
                    group, gwls = chunk[lo : lo + pack_size], wls[lo : lo + pack_size]
                    with tracer.span("sim.compile"):
                        compiled = [compile_netlist(nl) for nl in group]
                    with tracer.span("sim.pack_build"):
                        packed = pack_circuits(compiled)
                    if kind == "sim":
                        with tracer.span("sim.packed_run"):
                            res = simulate_packed(compiled, gwls, sim_cfg, packed=packed)
                    else:
                        with tracer.span("sim.packed_fault_run"):
                            res = simulate_with_faults_packed(
                                compiled, gwls, sim_cfg, fault_cfg, packed=packed
                            )
                    values += [_stored(kind, r) for r in res]
                with tracer.span("data.cache_put"):
                    for key, value in zip(keys, values):
                        scratch.put(key, value)
                with tracer.span("circuit.graph_build"):
                    for nl in chunk:
                        CircuitGraph(nl)
            with tracer.span("bench.replay_warm", run=f"replay-warm-{ci}"):
                _, keys = _keys(kind, chunk, seed, tracer)
                with tracer.span("data.cache_get_disk"):
                    got = [disk.get(k) for k in keys]
                with tracer.span("circuit.graph_build"):
                    for nl in chunk:
                        CircuitGraph(nl)
            ops.record(all(g is not None for g in got), "replay disk read missed")
    result["scratch"] = scratch


def probe(inp: dict, result: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    """Layer calls off this workload's path: the cache's memory tier."""
    scratch = result.pop("scratch")
    keys = [
        key
        for chunk, seed in zip(inp["chunks"], inp["chunk_seeds"])
        for kind in ("sim", "fault")
        for key in _keys(kind, chunk, seed, Tracer(False))[1]
    ]
    with tracer.span("data.cache_get_mem"):
        hit = all(scratch.get(k) is not None for k in keys)
    ops.record(hit, "memory tier missed a key the replay just stored")
    return {}

"""Workload ``large_design``: one hierarchical design through ingestion,
simulation, fault labelling and prediction.

One pass: ``write_aiger_file`` -> ``load_design(.aig)`` ->
``compile_netlist`` -> ``simulate`` -> ``simulate_with_faults`` ->
``BatchedPredictor`` float64 predict, with the process-wide plan/pack
caches cleared first (every pass ingests the design as new).  Each round
runs the pass twice: **alt** under a ``MemoryBudget`` of an eighth of the
monolithic plan footprints (streamed arenas, budgeted predictor), then
**base** with everything resident; the two must agree bitwise.  Every
pass repeats the same stages on the same design from the same cold
caches, so a stage's repeats can be compared; the stages that take no
budget (AIGER, fingerprint, compile, plan) are the same op in both phases
and pool their repeats.

One deep graph: numpy kernels and memory traffic dominate, packing and
caches do almost nothing — the opposite regime to ``label_corpus`` for
``sim`` and ``runtime``, and the workload that holds ``peak_rss_mib`` when
the block/streamed/partitioned engines are consolidated.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.circuit.aig import to_aig
from repro.circuit.aiger import read_aiger, write_aiger, write_aiger_file
from repro.circuit.benchmarks import load_design
from repro.circuit.generate import HierarchicalConfig, hierarchical_netlist
from repro.memory import MemoryBudget
from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.runtime.pack import clear_pack_cache
from repro.runtime.plan import clear_plan_cache, plan_cache_info, plan_for
from repro.runtime.predictor import BatchedPredictor
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig, SimPlan, compile_netlist, simulate
from repro.sim.workload import random_workload

from harness import Ops, digest_arrays, phase, seed_int, seed_sequence
from tracer import Tracer

NAME = "large_design"

SIM = SimConfig(cycles=32, streams=64, seed=0)
FAULT = FaultConfig(fault_rate=1e-3, episode_cycles=16, seed=3)
BUDGET_DIVISOR = 8


#: Generator seeds the design is drawn from.  The hierarchical generator's
#: logic depth varies 2x between seeds at a fixed node count (435-968
#: levels over seeds 0-119), and the levelized sweeps this workload times
#: are serial in depth, so an unscreened seed would set the pass time.
#: These are the seeds in 0-119 whose design, after the AIGER fixed point,
#: has 690-734 levels and 11.8k-12.7k nodes at the full-size config.
DESIGN_SEEDS = (1, 10, 40, 43, 53, 80, 86, 108, 116)


def sizes(seconds: float) -> dict:
    """~2.4 s per pass at 2 clouds (5.6k gates, 12.7k AIG nodes)."""
    full = seconds >= 5
    return {
        "rounds": max(1, round(seconds / 5)),
        "n_clouds": 2 if full else 1,
        "cloud_gates": 2400 if full else 400,
    }


def setup(seed: int, size: dict, tracer: Tracer) -> dict:
    design_seq, wl_seq = seed_sequence(seed, NAME).spawn(2)
    config = HierarchicalConfig(
        n_clouds=size["n_clouds"], cloud_gates=size["cloud_gates"]
    )
    design_seed = DESIGN_SEEDS[seed_int(design_seq) % len(DESIGN_SEEDS)]
    with tracer.span("circuit.generate"):
        aig = to_aig(hierarchical_netlist(config, seed=design_seed)).aig
    # The AIGER writer reorders ANDs on the first trips (two or three);
    # iterate to the fixed point of read(write(.)), so that every pass
    # reads back a netlist with the same fingerprint.
    raw = read_aiger(write_aiger(aig, binary=True))
    for _ in range(8):
        again = read_aiger(write_aiger(raw, binary=True))
        if again.fingerprint() == raw.fingerprint():
            break
        raw = again
    else:
        raise RuntimeError("AIGER write/read did not reach a fixed point")
    design = to_aig(raw).aig
    sim_bytes = SimPlan(compile_netlist(design), 1).resident_bytes()
    plan_bytes = plan_for(design, cache=False).resident_bytes()
    return {
        "raw": raw,
        "fingerprints": [design.fingerprint()],
        "workload": random_workload(design, seed=seed_int(wl_seq)),
        "model": DeepSeq(ModelConfig(hidden=32, iterations=2, seed=0)),
        "sim_budget": MemoryBudget(
            plan_bytes=sim_bytes // BUDGET_DIVISOR,
            history_bytes=sim_bytes // BUDGET_DIVISOR,
        ),
        "predict_budget": MemoryBudget(plan_bytes=plan_bytes // BUDGET_DIVISOR),
        "nodes": len(design),
    }


#: Stages that take no memory budget: the same op in both phases.
SHARED_STAGES = (
    "circuit.aiger_write", "circuit.aiger_read", "circuit.fingerprint",
    "sim.compile", "runtime.plan_compile",
)


@contextmanager
def _stage(tracer: Tracer, times: dict, name: str):
    """One stage of the pass: a span when traced, its wall time always."""
    t0 = time.perf_counter()
    with tracer.span(name):
        yield
    times[name] = time.perf_counter() - t0


def one_pass(inp: dict, budgeted: bool, path: Path, tracer: Tracer, run: str):
    """The full pass; returns (design fingerprint, stage times, sim, fault,
    prediction)."""
    sim_budget = inp["sim_budget"] if budgeted else None
    predict_budget = inp["predict_budget"] if budgeted else None
    wl = inp["workload"]
    times: dict[str, float] = {}
    clear_plan_cache()
    clear_pack_cache()
    with tracer.span("bench.pass", run=run):
        with _stage(tracer, times, "circuit.aiger_write"):
            write_aiger_file(inp["raw"], path)
        with _stage(tracer, times, "circuit.aiger_read"):
            design = load_design(path)
        with _stage(tracer, times, "circuit.fingerprint"):
            fp = design.fingerprint()
        with _stage(tracer, times, "sim.compile"):
            compiled = compile_netlist(design)
        with _stage(tracer, times, "sim.streamed_run" if budgeted else "sim.block_run"):
            sim = simulate(compiled, wl, SIM, budget=sim_budget)
        with _stage(tracer, times, "sim.fault_run"):
            fault = simulate_with_faults(compiled, wl, SIM, FAULT, budget=sim_budget)
        with _stage(tracer, times, "runtime.plan_compile"):
            plan_for(design).schedule(inp["model"].use_custom_batches)
        with _stage(
            tracer, times,
            "runtime.predict_budgeted" if budgeted else "runtime.predict_resident",
        ):
            with BatchedPredictor(
                inp["model"], batch_size=2, dtype="float64",
                memory_budget=predict_budget,
            ) as predictor:
                pred = predictor.predict(design, wl)
    return fp, times, sim, fault, pred


def _labels(sim, fault, pred) -> list[np.ndarray]:
    return [
        sim.logic_prob, sim.tr01_prob, sim.tr10_prob,
        fault.err01, fault.err10, fault.observed0, fault.observed1,
        np.asarray(fault.reliability), pred.tr, pred.lg,
    ]


def run(inp: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    path = workdir / "design.aig"
    lat = {True: [], False: []}
    stages = {True: defaultdict(list), False: defaultdict(list)}
    first = None
    for rnd in range(size["rounds"]):
        outs = {}
        for budgeted in (True, False):
            t0 = time.perf_counter()
            fp, times, *labels = one_pass(
                inp, budgeted, path, tracer,
                run=f"{'budgeted' if budgeted else 'resident'}-{rnd}",
            )
            lat[budgeted].append(time.perf_counter() - t0)
            for name, seconds in times.items():
                stages[budgeted][name].append(seconds)
            outs[budgeted] = _labels(*labels)
            ops.record(
                fp == inp["fingerprints"][0],
                "AIGER write->read changed the design fingerprint",
            )
        same = all(np.array_equal(a, b) for a, b in zip(outs[True], outs[False]))
        ops.record(same, f"budgeted pass differs from resident pass (round {rnd})")
        if first is None:
            first = outs[False]
        ops.record(
            all(np.array_equal(a, b) for a, b in zip(first, outs[False])),
            f"round {rnd} differs from round 0",
        )
    info = plan_cache_info()
    passes = 2 * size["rounds"]

    def pass_phase(budgeted: bool) -> dict:
        kind = "budgeted" if budgeted else "resident"
        return phase(
            # the pass is the sum of its stages
            kinds={
                name: {
                    "weight": 1.0,
                    "samples": samples + stages[not budgeted][name]
                    if name in SHARED_STAGES
                    else samples,
                }
                for name, samples in stages[budgeted].items()
            },
            work=1.0, op_s=lat[budgeted],
            total_work=len(lat[budgeted]), wall_s=sum(lat[budgeted]),
            what=f"{kind} passes, stage by stage",
        )

    return {
        "base": pass_phase(False),
        "alt": pass_phase(True),
        "digest": digest_arrays(first),
        "composite_s": sum(lat[True]) + sum(lat[False]),
        "path": path,
        "layer": {
            "circuit.aiger_bytes": path.stat().st_size,
            # sim + (golden + faulty) fault machines per pass
            "sim.node_cycles": 3 * passes * inp["nodes"] * (SIM.cycles + SIM.warmup),
            "runtime.plan_cache_hit_share": info.hits / max(1, info.hits + info.misses),
        },
    }


def replay(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> None:
    """Nothing to replay: the pass calls layer functions directly, so its
    spans already sit around each of them."""


def probe(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    """The partitioned engine: off the end-to-end pass, recorded so the
    engine consolidation can delete a path with data."""
    design = load_design(result["path"])
    wl = inp["workload"]
    reference = simulate(design, wl, SIM)
    with tracer.span("sim.partitioned_run"):
        got = simulate(design, wl, SIM, engine="partitioned", budget=inp["sim_budget"])
    ops.record(
        np.array_equal(reference.logic_prob, got.logic_prob)
        and np.array_equal(reference.tr01_prob, got.tr01_prob),
        "partitioned engine differs from block engine",
    )
    return {}

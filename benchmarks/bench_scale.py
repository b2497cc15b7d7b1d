"""Large-design scale benchmark: memory-bounded execution on 10k–50k nodes.

Exercises the whole large-design path on hierarchical block-composed
netlists (:func:`repro.circuit.generate.hierarchical_netlist`): ~10k
nodes at the default config, ~50k with ``cloud_gates=12_000``.  For each
design it times two executions of the same workload through the one
block executor:

* **block** — every plan buffer resident;
* **streamed** — under a :class:`~repro.memory.MemoryBudget` a fraction
  of the resident plan's footprint (gather chunks carved from one shared
  arena, a shallower history flushed per block).

and then pushes the design through fault labelling and budgeted
:class:`~repro.runtime.predictor.BatchedPredictor` inference.  Every
scenario is *verified before it is reported*: budgeted results must be
float64-bitwise-identical to the resident run
(``np.array_equal``, no tolerances), and the budget must genuinely be
smaller than the monolithic resident footprint — the reported shrink
factors come with proof that not a single result bit moved.

Run:  python benchmarks/bench_scale.py [--designs 10k,50k] [--cycles 32]
      [--streams 64] [--reps 1] [--budget-divisor 8] [--skip-fault]
      [--skip-predictor] [--json out.json]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

#: design label -> HierarchicalConfig kwargs.
DESIGNS = {
    "10k": {},
    "50k": {"cloud_gates": 12_000},
}


def best_of(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, min(times)


def check_sim_bitwise(ref, got, scenario):
    same = (
        np.array_equal(ref.logic_prob, got.logic_prob)
        and np.array_equal(ref.tr01_prob, got.tr01_prob)
        and np.array_equal(ref.tr10_prob, got.tr10_prob)
    )
    if not same:
        raise SystemExit(f"BITWISE MISMATCH: {scenario} != monolithic block")


def check_fault_bitwise(ref, got, scenario):
    same = (
        np.array_equal(ref.err01, got.err01)
        and np.array_equal(ref.err10, got.err10)
        and np.array_equal(ref.observed0, got.observed0)
        and np.array_equal(ref.observed1, got.observed1)
        and ref.reliability == got.reliability
    )
    if not same:
        raise SystemExit(f"BITWISE MISMATCH: {scenario} != monolithic block")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--designs", default="10k,50k",
        help="comma-separated subset of %s" % sorted(DESIGNS),
    )
    parser.add_argument("--cycles", type=int, default=32)
    parser.add_argument("--streams", type=int, default=64)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument(
        "--budget-divisor", type=int, default=8,
        help="budget = monolithic plan resident bytes / this divisor",
    )
    parser.add_argument("--skip-fault", action="store_true")
    parser.add_argument("--skip-predictor", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    from repro.circuit.aig import to_aig
    from repro.circuit.generate import HierarchicalConfig, hierarchical_netlist
    from repro.memory import MemoryBudget
    from repro.models.base import ModelConfig
    from repro.models.deepseq import DeepSeq
    from repro.runtime.plan import plan_for
    from repro.runtime.predictor import BatchedPredictor, predict_one
    from repro.sim.faults import FaultConfig, simulate_with_faults
    from repro.sim.logicsim import SimConfig, SimPlan, compile_netlist, simulate
    from repro.sim.workload import random_workload

    sim_cfg = SimConfig(cycles=args.cycles, streams=args.streams, seed=0)
    fault_cfg = FaultConfig(fault_rate=1e-3, episode_cycles=16, seed=3)
    words = (args.streams + 63) // 64
    scenarios = {}

    for label in args.designs.split(","):
        label = label.strip()
        nl = hierarchical_netlist(HierarchicalConfig(**DESIGNS[label]), seed=11)
        wl = random_workload(nl, seed=1)
        compiled = compile_netlist(nl)
        mono_plan = SimPlan(compiled, words)
        mono_bytes = mono_plan.resident_bytes()
        budget = MemoryBudget(
            plan_bytes=mono_bytes // args.budget_divisor,
            history_bytes=mono_bytes // args.budget_divisor,
        )
        assert budget.plan_bytes < mono_bytes, "budget must be a real bound"
        print(
            f"{label}: {len(nl)} nodes, {sim_cfg.cycles}x{sim_cfg.streams} "
            f"samples, monolithic plan {mono_bytes} B, "
            f"budget {budget.plan_bytes} B"
        )

        # --- fault-free: resident vs streamed ----------------------------
        ref, block_s = best_of(
            lambda: simulate(compiled, wl, sim_cfg), args.reps
        )
        got, streamed_s = best_of(
            lambda: simulate(compiled, wl, sim_cfg, budget=budget), args.reps
        )
        check_sim_bitwise(ref, got, f"{label}/sim streamed")
        streamed_bytes = SimPlan(compiled, words, budget=budget).resident_bytes()
        scenarios[f"{label}/sim"] = {
            "block_s": block_s,
            "streamed_s": streamed_s,
            "streamed_shrink": mono_bytes / streamed_bytes,
            "bitwise_verified": True,
        }
        print(
            f"  sim      block {block_s:6.2f} s   streamed {streamed_s:6.2f} s "
            f"({mono_bytes / streamed_bytes:5.1f}x less resident)   bitwise ok"
        )

        # --- fault labelling under budget -------------------------------
        if not args.skip_fault:
            fref, fblock_s = best_of(
                lambda: simulate_with_faults(compiled, wl, sim_cfg, fault_cfg),
                args.reps,
            )
            fgot, fstreamed_s = best_of(
                lambda: simulate_with_faults(
                    compiled, wl, sim_cfg, fault_cfg, budget=budget
                ),
                args.reps,
            )
            check_fault_bitwise(fref, fgot, f"{label}/fault streamed")
            scenarios[f"{label}/fault"] = {
                "block_s": fblock_s,
                "streamed_s": fstreamed_s,
                "bitwise_verified": True,
            }
            print(
                f"  fault    block {fblock_s:6.2f} s   "
                f"streamed {fstreamed_s:6.2f} s   bitwise ok"
            )

        # --- budgeted predictor inference -------------------------------
        if not args.skip_predictor:
            aig = to_aig(nl).aig
            gplan = plan_for(aig, cache=False)
            gbytes = gplan.resident_bytes()
            pbudget = MemoryBudget(plan_bytes=gbytes // args.budget_divisor)
            model = DeepSeq(ModelConfig(hidden=8, iterations=1, seed=0))
            pref, mono_pred_s = best_of(
                lambda: predict_one(model, aig, wl, dtype="float64"), args.reps
            )

            def budgeted():
                pred = BatchedPredictor(
                    model, batch_size=2, dtype="float64", memory_budget=pbudget
                )
                handle = pred.submit(aig, wl)
                pred.flush()
                return handle.result()

            pgot, budgeted_pred_s = best_of(budgeted, args.reps)
            if not (
                np.array_equal(pref.tr, pgot.tr)
                and np.array_equal(pref.lg, pgot.lg)
            ):
                raise SystemExit(
                    f"BITWISE MISMATCH: {label}/predict budgeted != monolithic"
                )
            scenarios[f"{label}/predict"] = {
                "monolithic_s": mono_pred_s,
                "budgeted_s": budgeted_pred_s,
                "budget_shrink": gbytes / pbudget.plan_bytes,
                "bitwise_verified": True,
            }
            print(
                f"  predict  monolithic {mono_pred_s:6.2f} s   "
                f"budgeted {budgeted_pred_s:6.2f} s "
                f"({gbytes / pbudget.plan_bytes:5.1f}x tighter budget)   "
                f"bitwise ok"
            )

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_rss_mb:.0f} MB")

    if args.json:
        doc = {
            "config": {
                "designs": args.designs,
                "cycles": args.cycles,
                "streams": args.streams,
                "reps": args.reps,
                "budget_divisor": args.budget_divisor,
            },
            "scenarios": scenarios,
            "peak_rss_mb": peak_rss_mb,
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()

"""Simulation benchmark: per-cycle reference vs the block executor, alone
and packed.

Times the ground-truth simulator on the small and medium bench circuits,
fault-free and with Monte-Carlo fault injection:

* **cycle** — the per-cycle loop (``engine="cycle"``), the pinned
  reference oracle;
* **block** — the block executor (``engine="block"``) on one circuit, i.e.
  a one-member pack: stimulus pregenerated per block, precomputed
  gather/output chunks with in-place ufuncs, whole-block SWAR popcount
  statistics, and fault masks drawn in bulk per member stream;
* **packed** — K circuits fused into one disjoint super-graph sweep
  through the same executor (:mod:`repro.sim.pack`), timed against K
  sequential one-member runs, so the reported packed speedup is
  multiplicative with block's.

Every run is *verified before it is reported*: the executor's
``SimResult``/``FaultSimResult`` must be float64-bitwise-identical to the
per-cycle reference's, packed results must be member-wise identical to
sequential one-member runs, and (at default parameters) the label-cache
digests must equal the constants pinned from the pre-refactor engine —
i.e. the speedups come with a proof that every cached label stays valid
and no ``CACHE_VERSION`` bump is owed.

Run:  python benchmarks/bench_sim.py [--cycles 128] [--streams 64]
      [--reps 3] [--block-cycles N] [--min-speedup X]
      [--pack-members K] [--packed-min-speedup X] [--json out.json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from _speedup import SpeedupGate

#: Label-cache digests of the default scenarios, produced by the
#: pre-refactor engine (label_key has no engine input; these move only if
#: label semantics change, which owes a CACHE_VERSION bump).
PINNED_KEYS = {
    ("small", "sim"): (
        "bbe210e53ae9dd4d57f99e0f9800cce66b571b08774456415dd4138b2f58360f"
    ),
    ("small", "fault"): (
        "82bba0a2cd50c5ca5bfa793bede2ec65084b6280aa4275b3bf92c4ee8bddbfc4"
    ),
    ("medium", "sim"): (
        "e9449bd63b07fb938e5c94632c49957bdde36506859ff7bbc5a2f76c0b899712"
    ),
    ("medium", "fault"): (
        "acb88945ca854f026d8903276c09782752a47e7e27038e44cc530c80558f2e91"
    ),
}


def check_sim_bitwise(ref, got, scenario):
    same = (
        np.array_equal(ref.logic_prob, got.logic_prob)
        and np.array_equal(ref.tr01_prob, got.tr01_prob)
        and np.array_equal(ref.tr10_prob, got.tr10_prob)
    )
    if not same:
        raise SystemExit(f"BITWISE MISMATCH: {scenario} block != cycle")


def check_fault_bitwise(ref, got, scenario):
    same = (
        np.array_equal(ref.err01, got.err01)
        and np.array_equal(ref.err10, got.err10)
        and np.array_equal(ref.observed0, got.observed0)
        and np.array_equal(ref.observed1, got.observed1)
        and ref.reliability == got.reliability
    )
    if not same:
        raise SystemExit(f"BITWISE MISMATCH: {scenario} block != cycle")


def best_of(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=128)
    parser.add_argument("--streams", type=int, default=64)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--block-cycles", type=int, default=None,
        help="block engine history depth (default: engine default)",
    )
    parser.add_argument(
        "--skip-fault", action="store_true",
        help="benchmark only the fault-free path",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail when any block/cycle speedup falls below this factor",
    )
    parser.add_argument(
        "--pack-members", type=int, default=8,
        help="members per packed scenario (0 skips packed scenarios)",
    )
    parser.add_argument(
        "--packed-min-speedup", type=float, default=1.0,
        help="fail when a packed fault-sim speedup over sequential "
        "one-member runs falls below this factor (0 disables; since the "
        "lockstep pass halved the per-level overhead packing saves, the "
        "bar is that packing never loses)",
    )
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    from repro.circuit.benchmarks import large_design
    from repro.data.cache import label_key
    from repro.sim.faults import FaultConfig, simulate_with_faults
    from repro.sim.logicsim import SimConfig, compile_netlist, simulate
    from repro.sim.pack import (
        pack_circuits,
        simulate_packed,
        simulate_with_faults_packed,
    )
    from repro.sim.workload import Workload, testbench_workload

    sim_cfg = SimConfig(cycles=args.cycles, streams=args.streams, seed=0)
    fault_cfg = FaultConfig(seed=2)
    default_params = args.cycles == 128 and args.streams == 64
    results = {}
    gate = SpeedupGate(args.min_speedup)
    packed_gate = SpeedupGate(args.packed_min_speedup)

    for label, scale in (("small", 0.125), ("medium", 0.5)):
        nl = large_design("ptc", scale=scale)
        wl = testbench_workload(nl, seed=1)
        compiled = compile_netlist(nl)
        print(
            f"{label}: ptc scale={scale} ({len(nl)} nodes), "
            f"{sim_cfg.cycles}x{sim_cfg.streams} samples"
        )

        kinds = [("sim", False)] + ([] if args.skip_fault else [("fault", True)])
        for kind, faulty in kinds:
            scenario = f"{label}/{kind}"
            if faulty:
                def run(engine):
                    return simulate_with_faults(
                        compiled,
                        wl,
                        sim_cfg,
                        fault_cfg,
                        engine=engine,
                        **(
                            {"block_cycles": args.block_cycles}
                            if engine == "block"
                            else {}
                        ),
                    )
            else:
                def run(engine):
                    return simulate(
                        compiled,
                        wl,
                        sim_cfg,
                        engine=engine,
                        **(
                            {"block_cycles": args.block_cycles}
                            if engine == "block"
                            else {}
                        ),
                    )

            ref, cycle_s = best_of(lambda: run("cycle"), args.reps)
            got, block_s = best_of(lambda: run("block"), args.reps)
            if faulty:
                check_fault_bitwise(ref, got, scenario)
            else:
                check_sim_bitwise(ref, got, scenario)
            if default_params:
                key = label_key(
                    kind,
                    nl.fingerprint(),
                    wl,
                    sim_cfg,
                    fault_cfg if faulty else None,
                )
                if key != PINNED_KEYS[(label, kind)]:
                    raise SystemExit(
                        f"LABEL DIGEST MOVED: {scenario} — cached labels "
                        "orphaned; a CACHE_VERSION bump is owed"
                    )
                digest_checked = True
            else:
                digest_checked = False
            speedup = cycle_s / block_s
            print(
                f"  {kind:<5s}  cycle {cycle_s * 1000:8.1f} ms   "
                f"block {block_s * 1000:8.1f} ms   {speedup:5.2f}x   "
                f"bitwise ok{'   digest ok' if digest_checked else ''}"
            )
            results[scenario] = {
                "cycle_s": cycle_s,
                "block_s": block_s,
                "speedup": speedup,
                "bitwise_verified": True,
                "digest_verified": digest_checked,
            }
            gate.check(scenario, speedup)

        # Packed scenarios: K members (same circuit, distinct stimulus
        # streams) in one fused sweep vs K sequential block-engine runs.
        K = args.pack_members
        if K > 1:
            member_wls = [
                Workload(wl.pi_probs, name=f"{wl.name}.{i}", seed=100 + i)
                for i in range(K)
            ]
            packed_plan = pack_circuits([compiled] * K)
            for kind, faulty in kinds:
                scenario = f"{label}/packed-{kind}@K{K}"
                if faulty:
                    def run_seq():
                        return [
                            simulate_with_faults(
                                compiled, w, sim_cfg, fault_cfg
                            )
                            for w in member_wls
                        ]

                    def run_packed():
                        return simulate_with_faults_packed(
                            [compiled] * K,
                            member_wls,
                            sim_cfg,
                            fault_cfg,
                            packed=packed_plan,
                        )
                else:
                    def run_seq():
                        return [
                            simulate(compiled, w, sim_cfg)
                            for w in member_wls
                        ]

                    def run_packed():
                        return simulate_packed(
                            [compiled] * K,
                            member_wls,
                            sim_cfg,
                            packed=packed_plan,
                        )

                seq_res, seq_s = best_of(run_seq, args.reps)
                pk_res, packed_s = best_of(run_packed, args.reps)
                for i, (ref, got) in enumerate(zip(seq_res, pk_res)):
                    member = f"{scenario}[{i}]"
                    if faulty:
                        check_fault_bitwise(ref, got, member)
                    else:
                        check_sim_bitwise(ref, got, member)
                speedup = seq_s / packed_s
                print(
                    f"  {('packed-' + kind):<12s}  seq {seq_s * 1000:8.1f} ms"
                    f"   packed {packed_s * 1000:8.1f} ms   {speedup:5.2f}x"
                    f"   bitwise ok (K={K})"
                )
                results[scenario] = {
                    "sequential_s": seq_s,
                    "packed_s": packed_s,
                    "speedup": speedup,
                    "members": K,
                    "bitwise_verified": True,
                }
                if faulty:
                    packed_gate.check(scenario, speedup)

    if args.json:
        payload = {
            "cycles": args.cycles,
            "streams": args.streams,
            "reps": args.reps,
            "scenarios": results,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    gate.finish()
    packed_gate.finish()


if __name__ == "__main__":
    main()

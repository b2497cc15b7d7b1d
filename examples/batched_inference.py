"""Extension: serving-style batched inference with the runtime layer.

Demonstrates the three pieces of :mod:`repro.runtime`:

1. **Compiled plans** — each circuit structure is levelized once and the
   plan is cached process-wide under its content hash;
2. **Multi-circuit packing** — a :class:`BatchedPredictor` packs K
   circuits into one disjoint super-graph, so a single levelized sweep
   serves the whole batch;
3. **The float32 fast path** — inference runs on a cached float32
   replica of the model while the float64 master copies stay untouched
   for training.

Run:  python examples/batched_inference.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.circuit import GeneratorConfig, random_sequential_netlist, to_aig
from repro.models import DeepSeq, ModelConfig
from repro.runtime import BatchedPredictor, plan_for
from repro.sim import random_workload


def main() -> None:
    model = DeepSeq(ModelConfig(hidden=32, iterations=4, seed=0))

    # A stream of inference requests: 24 circuits with mixed shapes.
    graphs, workloads = [], []
    for k in range(24):
        nl = to_aig(
            random_sequential_netlist(
                GeneratorConfig(n_pis=6 + k % 4, n_dffs=4 + k % 3, n_gates=120),
                seed=k,
            )
        ).aig
        graphs.append(plan_for(nl).graph)
        workloads.append(random_workload(nl, seed=100 + k))

    # Sequential float64 baseline.
    t0 = time.perf_counter()
    baseline = [model.predict(g, w) for g, w in zip(graphs, workloads)]
    t_seq = time.perf_counter() - t0

    # Batched float32 fast path: packs of 8 circuits, one sweep each.
    predictor = BatchedPredictor(model, batch_size=8, dtype="float32")
    t0 = time.perf_counter()
    batched = predictor.predict_many(graphs, workloads)
    t_batch = time.perf_counter() - t0

    worst = max(
        np.abs(b.tr - s.tr).max() for b, s in zip(batched, baseline)
    )
    print(f"sequential float64: {len(graphs) / t_seq:8.2f} circuits/sec")
    print(f"batched   float32: {len(graphs) / t_batch:8.2f} circuits/sec")
    print(f"max |fp32 - fp64| over all nodes: {worst:.2e}")
    print(
        f"processed {len(batched)} circuits in packs of {predictor.batch_size}"
    )


if __name__ == "__main__":
    main()

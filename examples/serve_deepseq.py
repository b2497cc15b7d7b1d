"""Extension: multi-worker serving with work-conserving micro-batching.

Spins up a :class:`repro.serve.Server` — K worker threads, each holding a
serialized-equal replica of one DeepSeq model — and drives it with a
handful of concurrent closed-loop clients, the shape of traffic a
multi-user deployment sees.  The server packs whatever requests are
pending when a flush fires (nothing in flight, queue reached
``batch_size``, or the oldest request is ``max_latency_ms`` old) into one
super-graph sweep.

Shows: the latency/throughput trade-off of ``max_latency_ms``, the
metrics surface, and the float64 equivalence guarantee (every served
result is bitwise-identical to a sequential ``model.predict``).

Run:  python examples/serve_deepseq.py
"""

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.circuit import GeneratorConfig, random_sequential_netlist, to_aig
from repro.models import DeepSeq, ModelConfig
from repro.runtime import plan_for
from repro.serve import Server
from repro.sim import random_workload

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 24


def build_problems(n: int = 16):
    problems = []
    for k in range(n):
        nl = to_aig(
            random_sequential_netlist(
                GeneratorConfig(n_pis=6 + k % 4, n_dffs=3 + k % 3, n_gates=90),
                seed=k,
            )
        ).aig
        problems.append((plan_for(nl).graph, random_workload(nl, seed=100 + k)))
    return problems


def main() -> None:
    model = DeepSeq(ModelConfig(hidden=32, iterations=4, seed=0))
    problems = build_problems()
    baseline = [model.predict(g, w) for g, w in problems]

    for max_latency_ms in (5.0, 50.0):
        with Server(
            model,
            workers=2,
            batch_size=8,
            max_latency_ms=max_latency_ms,
            dtype="float64",
        ) as server:
            mismatches = [0]

            def client(cid: int) -> None:
                for i in range(REQUESTS_PER_CLIENT):
                    idx = (cid * 5 + i) % len(problems)
                    result = server.predict(*problems[idx])
                    if not np.array_equal(result.tr, baseline[idx].tr):
                        mismatches[0] += 1

            t0 = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0

            total = N_CLIENTS * REQUESTS_PER_CLIENT
            print(f"\n=== max_latency_ms={max_latency_ms:.0f} ===")
            print(
                f"{total} requests from {N_CLIENTS} clients in {elapsed:.2f}s "
                f"({total / elapsed:.1f} circuits/sec)"
            )
            print(server.metrics.format())
            print(
                "float64 equivalence: "
                + ("BITWISE OK" if mismatches[0] == 0 else f"{mismatches[0]} MISMATCHES")
            )


if __name__ == "__main__":
    main()

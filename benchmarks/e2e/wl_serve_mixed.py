"""Workload ``serve_mixed``: requests in, predictions out, mixed traffic.

Twelve distinct netlists (nine family sub-circuits picked at fixed target
sizes, plus the ``ptc`` design at scale 1/8, 1/4 and 1/2; ~70-990 nodes)
with Zipf(1.1) popularity and 16 workloads each, served in float32 with
``workers=1, batch_size=8, max_latency_ms=25``.  Two front ends, both
started (and warmed with pipelined traffic) in set-up — **base** the
in-process threaded ``Server``, **alt** the ``Gateway`` over one
``GatewayClient`` connection — then driven in turns: first **round
trips**, one request outstanding at a time (what a lone client waits:
the batching deadline, one sweep, the transport), then **saturation**
bursts of pipelined submits.  Traffic comes in blocks of ``BLOCK``
requests; every block is the same apportioned draw of the mix (each
circuit ``round(p * BLOCK)`` times) in an order, and with workloads, drawn
from the seed — so a round trip for circuit ``c`` is the same kind of op
wherever it falls, and a burst is the same work every time.

The traced run adds **open loops** of Poisson arrivals at 20, 40 and 80
req/s per front end (latency timed from each request's scheduled send
instant): latency under load, queueing and the highest rate within the
latency limit are per-layer figures.  Their tails spread by 30% and more
between runs of the same code on the reference host, which no bound can
hold; a lone round trip repeats.

Random batch compositions miss the 32-entry pack LRU, which serving one
circuit hides.  Both front ends share the ``runtime`` sweep and differ
only in transport and IPC, so a gateway fix should move ``alt_*`` and
leave ``base_*`` alone; ``workers=1`` is the "gateway >= lone threaded
server" comparison.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

import numpy as np

from repro.circuit.benchmarks import family_subcircuits, large_design
from repro.circuit.graph import CircuitGraph
from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.nn.serialize import clone_module
from repro.runtime.pack import clear_pack_cache, pack_cache_info, pack_graphs
from repro.runtime.plan import plan_for
from repro.runtime.predictor import BatchedPredictor, predict_one, predict_packed
from repro.serve import Gateway, Server, transport
from repro.sim.workload import random_workload

from harness import (
    Ops,
    descendant_peak_rss_kib,
    digest_arrays,
    percentile,
    phase,
    seed_int,
    seed_sequence,
)
from inputs import FAMILIES, nearest_by_size
from probes import shm_round_trip
from tracer import Tracer

NAME = "serve_mixed"

SERVE = {"workers": 1, "batch_size": 8, "max_latency_ms": 25.0, "dtype": "float32"}
FRONTS = ("threaded", "gateway")
RATES = (20.0, 40.0, 80.0)  # open loops of the traced run
BLOCK = 32  # requests in a block of round trips and in a burst
FAMILY_TARGETS = [70, 100, 130, 160, 200, 240, 290, 350, 420]
PTC_SCALES = (0.125, 0.25, 0.5)
WORKLOADS_EACH = 16
#: Zipf rank of each circuit, circuits sorted by node count.  Fixed, so the
#: traffic's mean circuit size does not depend on the seed.
RANK_OF_SIZE_ORDER = (6, 2, 9, 4, 0, 7, 11, 3, 8, 1, 10, 5)
SLO_P95_MS = 250.0
CHECK_EVERY = 16
REQUEST_TIMEOUT_S = 60.0


def sizes(seconds: float) -> dict:
    """Per front end ~1.3 s a block of round trips, ~0.33 s a burst."""
    return {
        "blocks": max(1, round(0.15 * seconds)),
        "bursts": max(2, round(0.5 * seconds)),
        "sweep_s": max(0.5, seconds / 6.5),  # traced run: seconds per open loop
        "warmup": max(16, round(3 * seconds)),
    }


def block_counts() -> np.ndarray:
    """Requests per circuit in one block: Zipf(1.1) shares of ``BLOCK``,
    apportioned by largest remainder (every circuit at least once)."""
    share = 1.0 / (1.0 + np.asarray(RANK_OF_SIZE_ORDER)) ** 1.1
    exact = share / share.sum() * BLOCK
    counts = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - counts), kind="stable")[: BLOCK - counts.sum()]:
        counts[i] += 1
    return counts


def setup(seed: int, size: dict, tracer: Tracer) -> dict:
    circ_seq, ptc_seq, wl_seq, traffic_seq = seed_sequence(seed, NAME).spawn(4)
    with tracer.span("circuit.generate"):
        pool = [
            nl
            for family, child in zip(FAMILIES, circ_seq.spawn(len(FAMILIES)))
            for nl in family_subcircuits(family, 24, seed=seed_int(child))
        ]
        netlists = nearest_by_size(pool, FAMILY_TARGETS) + [
            large_design("ptc", seed=seed_int(ptc_seq), scale=scale)
            for scale in PTC_SCALES
        ]
    netlists.sort(key=len)
    with tracer.span("circuit.graph_build"):
        graphs = [CircuitGraph(nl) for nl in netlists]
    workloads = [
        [random_workload(nl, seed=seed_int(s)) for s in child.spawn(WORKLOADS_EACH)]
        for nl, child in zip(netlists, wl_seq.spawn(len(netlists)))
    ]
    rng = np.random.default_rng(traffic_seq)
    # one request stream and one unit-rate arrival stream, reused by every
    # phase and both front ends: timed blocks first, then the tail that
    # warm-up and the traced run's rate sweeps draw from
    tail = max(size["warmup"], int(max(RATES) * size["sweep_s"]))
    n_blocks = size["blocks"] + size["bursts"] + -(-tail // BLOCK)
    one_block = np.repeat(np.arange(len(netlists)), block_counts())
    return {
        "netlists": netlists,
        "graphs": graphs,
        "workloads": workloads,
        "model": DeepSeq(ModelConfig(hidden=32, iterations=4, seed=0)),
        "circuit_ids": np.concatenate([rng.permutation(one_block) for _ in range(n_blocks)]),
        "workload_ids": rng.integers(0, WORKLOADS_EACH, size=n_blocks * BLOCK),
        "unit_gaps": rng.exponential(1.0, size=n_blocks * BLOCK),
        "fingerprints": [nl.fingerprint() for nl in netlists],
    }


def _requests(inp: dict, start: int, count: int) -> list[tuple[int, int]]:
    ids = zip(inp["circuit_ids"][start : start + count],
              inp["workload_ids"][start : start + count])
    return [(int(c), int(w)) for c, w in ids]


class _Front:
    """One started front end and how to submit a request to it."""

    def __init__(self, name: str, inp: dict) -> None:
        self.name = name
        circuits = inp["graphs"] if name == "threaded" else inp["netlists"]
        if name == "threaded":
            self.front = Server(inp["model"], **SERVE)
            self.client = None
            submit = self.front.submit
        else:
            self.front = Gateway(inp["model"], **SERVE)
            self.client = self.front.connect()
            submit = self.client.submit
        for circuit in circuits:
            self.front.warm(circuit)
        self._submit = lambda c, w: submit(circuits[c], inp["workloads"][c][w])

    def submit(self, request: tuple[int, int]):
        return self._submit(*request)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.front.close()


def open_loop(front: _Front, requests, gaps, rate: float) -> dict:
    """Send ``requests`` on a Poisson schedule regardless of completions.

    Latency runs from each request's *scheduled* send instant, so a stall
    charges the wait it imposes on later requests.  A collector thread
    resolves futures in send order (one worker serves FIFO, so that is
    completion order) and stamps each completion.
    """
    n = len(requests)
    due = np.cumsum(gaps[:n]) / rate
    done_at = [None] * n
    results: list = [None] * n
    sent: queue.Queue = queue.Queue()

    def collect() -> None:
        for _ in range(n):
            i, future = sent.get()
            if future is None:
                continue
            try:
                results[i] = future.result(timeout=REQUEST_TIMEOUT_S)
                done_at[i] = time.perf_counter()
            except Exception as exc:  # a failed request is a failed op
                results[i] = exc

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    late = []
    t0 = time.perf_counter()
    for i, request in enumerate(requests):
        wait = t0 + due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late.append(time.perf_counter() - (t0 + due[i]))
        try:
            sent.put((i, front.submit(request)))
        except Exception as exc:  # refused at admission
            results[i] = exc
            sent.put((i, None))
    backlog = sum(1 for d, r in zip(done_at, results) if d is None and r is None)
    collector.join()
    ok = [i for i in range(n) if done_at[i] is not None]
    return {
        "latency_s": [done_at[i] - (t0 + due[i]) for i in ok],
        # aligned with ``requests``; ``None`` where the request failed
        "latency_by_request": [
            None if done_at[i] is None else done_at[i] - (t0 + due[i]) for i in range(n)
        ],
        "results": results,
        "failed": n - len(ok),
        "late_ms": [1e3 * x for x in late],
        "backlog_at_end": backlog,
    }


def saturate(front: _Front, requests) -> dict:
    """Pipeline every request at once; completed per second."""
    t0 = time.perf_counter()
    futures = [front.submit(r) for r in requests]
    failed = 0
    for future in futures:
        try:
            future.result(timeout=REQUEST_TIMEOUT_S)
        except Exception:
            failed += 1
    return {"wall_s": time.perf_counter() - t0, "failed": failed}


def round_trips(front: _Front, requests) -> dict:
    """One request outstanding at a time; seconds from submit to result."""
    latency, results = [], []
    for request in requests:
        t0 = time.perf_counter()
        try:
            results.append(front.submit(request).result(timeout=REQUEST_TIMEOUT_S))
            latency.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed request is a failed op
            results.append(exc)
            latency.append(None)
    return {"latency_by_request": latency, "results": results,
            "failed": sum(1 for x in latency if x is None)}


def _between(before: dict, after: dict) -> dict:
    """What a front end served between two ``metrics.snapshot()``s, as
    means.  Its recorders keep the last 4096 samples, more than a run
    submits, so ``mean * count`` is a recorder's total."""

    def total(snap: dict, key: str) -> float:
        return snap[key]["mean"] * snap[key]["count"] if snap[key]["count"] else 0.0

    batches = after["batches"] - before["batches"]
    requests = after["queue_wait_ms"]["count"] - before["queue_wait_ms"]["count"]
    service_ms = total(after, "service_ms") - total(before, "service_ms")
    return {
        "service_s": service_ms / 1e3,
        "service_mean_ms": service_ms / max(1, batches),
        "queue_wait_mean_ms": (total(after, "queue_wait_ms") - total(before, "queue_wait_ms"))
        / max(1, requests),
        "mean_batch_size": (after["batched_circuits"] - before["batched_circuits"])
        / max(1, batches),
    }


def _check_predictions(inp: dict, requests, results, ops: Ops) -> None:
    """Every ``CHECK_EVERY``-th served prediction against the references."""
    model = inp["model"]
    for i in range(0, len(requests), CHECK_EVERY):
        c, w = requests[i]
        got, wl = results[i], inp["workloads"][c][w]
        if isinstance(got, Exception) or got is None:
            continue  # already counted as a failed request
        ref32 = predict_one(model, inp["graphs"][c], wl, dtype="float32")
        ref64 = model.predict(inp["graphs"][c], wl)
        ops.record(
            np.array_equal(got.tr, ref32.tr) and np.array_equal(got.lg, ref32.lg),
            f"request {i}: served prediction differs from predict_one(float32)",
        )
        ops.record(
            float(np.abs(got.tr - ref64.tr).max()) <= 1e-4
            and float(np.abs(got.lg - ref64.lg).max()) <= 1e-4,
            f"request {i}: served prediction is not within 1e-4 of float64",
        )


def drive(fronts: dict, inp: dict, size: dict, tracer: Tracer, ops: Ops) -> dict:
    """The timed phases over started front ends, which take turns: blocks
    of round trips, then saturation bursts.  The traced run puts the
    open loop at the lowest rate first (so that the front end's own
    latency histograms hold warm-up and that loop only) and the others last.
    """
    out = {name: {"trips": [], "bursts": [], "loops": {}} for name in fronts}
    gaps = inp["unit_gaps"]
    tail = (size["blocks"] + size["bursts"]) * BLOCK

    def loop(name: str, rate: float) -> None:
        n = int(rate * size["sweep_s"])
        with tracer.span(f"serve.{name}.open_loop", run=name):
            out[name]["loops"][rate] = open_loop(
                fronts[name], _requests(inp, tail, n), gaps[tail : tail + n], rate
            )

    if tracer.enabled:
        for name, front in fronts.items():
            before = front.front.metrics.snapshot()
            loop(name, RATES[0])
            out[name]["served"] = _between(before, front.front.metrics.snapshot())
            out[name]["loop_requests"] = _requests(inp, tail, int(RATES[0] * size["sweep_s"]))
    for block in range(size["blocks"]):
        for name, front in fronts.items():
            with tracer.span(f"serve.{name}.round_trips", run=name):
                out[name]["trips"].append(
                    round_trips(front, _requests(inp, block * BLOCK, BLOCK))
                )
    for burst in range(size["bursts"]):
        lo = (size["blocks"] + burst) * BLOCK
        for name, front in fronts.items():
            with tracer.span(f"serve.{name}.saturation", run=name):
                out[name]["bursts"].append(saturate(front, _requests(inp, lo, BLOCK)))
    if tracer.enabled:
        for name in fronts:
            for rate in RATES[1:]:
                loop(name, rate)

    n_trips = size["blocks"] * BLOCK
    for name, front in fronts.items():
        o = out[name]
        o["requests"] = _requests(inp, 0, n_trips)
        o["latency_by_request"] = [x for t in o["trips"] for x in t["latency_by_request"]]
        o["results"] = [r for t in o["trips"] for r in t["results"]]
        o["final"] = front.front.metrics.snapshot()
        failed = sum(t["failed"] for t in o["trips"]) + sum(b["failed"] for b in o["bursts"])
        ops.record(True, count=n_trips + size["bursts"] * BLOCK - failed)
        ops.record(False, f"{name}: requests failed, were refused or timed out", count=failed)
    return out


def _within_slo(rate: float, loop: dict) -> bool:
    """p95 within the limit, nothing failed, and no more outstanding at the
    end than the limit allows by Little's law (no growing backlog)."""
    return (
        not loop["failed"]
        and percentile([1e3 * s for s in loop["latency_s"]], 95) <= SLO_P95_MS
        and loop["backlog_at_end"] <= rate * SLO_P95_MS / 1e3
    )


def _front_layer(name: str, out: dict) -> dict:
    """Per-layer figures of one front end from the traced run's open loops."""
    served, loops = out["served"], out["loops"]
    lowest = loops[RATES[0]]["latency_s"]
    layer = {
        f"serve.{name}.queue_wait_mean_ms": served["queue_wait_mean_ms"],
        f"serve.{name}.service_mean_ms": served["service_mean_ms"],
        f"serve.{name}.mean_batch_size": served["mean_batch_size"],
        f"serve.{name}.overhead_mean_ms": 1e3 * sum(lowest) / len(lowest)
        - (served["queue_wait_mean_ms"] + served["service_mean_ms"]),
        f"serve.{name}.max_rate_within_slo": max(
            [r for r, lp in loops.items() if _within_slo(r, lp)], default=0.0
        ),
    }
    for rate, lp in loops.items():
        lat_ms = [1e3 * s for s in lp["latency_s"]]
        layer[f"serve.{name}.p50_ms.r{int(rate)}"] = percentile(lat_ms, 50)
        layer[f"serve.{name}.p95_ms.r{int(rate)}"] = percentile(lat_ms, 95)
    return layer


def _start(name: str, inp: dict, size: dict, tracer: Tracer) -> _Front:
    """Start one front end and let pipelined warm-up traffic bring the
    plan/pack caches to the state the mix keeps them in."""
    with tracer.span("serve.startup", run=name):
        front = _Front(name, inp)
        try:
            tail = (size["blocks"] + size["bursts"]) * BLOCK
            for future in [front.submit(r) for r in _requests(inp, tail, size["warmup"])]:
                future.result(timeout=REQUEST_TIMEOUT_S)
        except BaseException:
            front.close()
            raise
    return front


def run(inp: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    packs0 = pack_cache_info()
    fronts: dict[str, _Front] = {}
    t0 = time.perf_counter()
    try:
        for name in FRONTS:
            fronts[name] = _start(name, inp, size, tracer)
        startup_s = time.perf_counter() - t0
        out = drive(fronts, inp, size, tracer, ops)
        packs1 = pack_cache_info()  # the gateway's packs live in its worker
        children_rss_kib = descendant_peak_rss_kib()
    finally:
        for front in fronts.values():
            front.close()
    threaded, gateway = out["threaded"], out["gateway"]
    for o in out.values():
        _check_predictions(inp, o["requests"], o["results"], ops)

    digests = {
        name: digest_arrays(
            arr
            for r in o["results"]
            if not isinstance(r, Exception)
            for arr in (r.tr, r.lg)
        )
        for name, o in out.items()
    }
    ops.record(
        digests["threaded"] == digests["gateway"],
        "gateway and threaded server served different predictions",
    )

    counts = block_counts()

    def front_phase(name: str, o: dict) -> dict:
        # a round trip for circuit c is one kind of op; the mix weighs them
        by_circuit: dict[int, list[float]] = {}
        for (c, _), lat in zip(o["requests"], o["latency_by_request"]):
            if lat is not None:
                by_circuit.setdefault(c, []).append(lat)
        done = [BLOCK - b["failed"] for b in o["bursts"]]
        walls = [b["wall_s"] for b in o["bursts"]]
        return phase(
            kinds={
                f"circuit{c}": {"weight": counts[c] / BLOCK, "samples": samples}
                for c, samples in sorted(by_circuit.items())
            },
            work=1.0,
            op_s=[lat for lat in o["latency_by_request"] if lat is not None],
            total_work=sum(done), wall_s=sum(walls),
            rates=[d / w for d, w in zip(done, walls)],
            what=f"{name}: round trips by circuit, weighted by the mix; "
            f"{len(walls)} bursts of {BLOCK} pipelined requests",
        )

    result = {
        "base": front_phase("threaded", threaded),
        "alt": front_phase("gateway", gateway),
        "setup_extra_s": startup_s,
        "children_rss_kib": children_rss_kib,
        "digest": digests["threaded"],
        "warnings": [],
        "layer": {},
    }
    if tracer.enabled:
        lowest = [o["loops"][RATES[0]] for o in out.values()]
        late_p95 = percentile([x for lp in lowest for x in lp["late_ms"]], 95)
        if late_p95 > 5.0:
            result["warnings"].append(
                f"serve.sender_late_p95_ms {late_p95:.2f} > 5: the load generator "
                "ran late, latencies are pessimistic"
            )
        final = {k: threaded["final"][k] + gateway["final"][k]
                 for k in ("rejected", "expired", "worker_deaths", "restarts")}
        looked = (packs1.hits - packs0.hits) + (packs1.misses - packs0.misses)
        for o in out.values():
            failed = sum(lp["failed"] for lp in o["loops"].values())
            sent = sum(len(lp["results"]) for lp in o["loops"].values())
            ops.record(True, count=sent - failed)
            ops.record(False, "an open-loop request failed or timed out", count=failed)
        result["threaded"] = threaded
        # what replay() mirrors: the packed sweeps of the threaded server's
        # open loop at the lowest rate
        result["composite_s"] = threaded["served"]["service_s"]
        result["layer"] = {
            **_front_layer("threaded", threaded),
            **_front_layer("gateway", gateway),
            "serve.sender_late_p95_ms": late_p95,
            "serve.backlog_at_end": sum(lp["backlog_at_end"] for lp in lowest),
            "serve.rejected": final["rejected"],
            "serve.expired": final["expired"],
            "serve.worker_deaths": final["worker_deaths"],
            "serve.restarts": final["restarts"],
            "runtime.pack_cache_hit_share": (packs1.hits - packs0.hits) / max(1, looked),
        }
    return result


def replay(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> None:
    """The threaded worker's service path on the requests of its open loop
    at the lowest rate: per batch, ``pack_graphs`` (LRU-cached, as served)
    then one packed float32 sweep.  Batches are consecutive runs of the
    observed mean batch size; the server's own compositions depended on
    arrival timing.
    """
    threaded = result.pop("threaded")
    requests = threaded["loop_requests"]
    k = max(1, round(threaded["served"]["mean_batch_size"]))
    model = clone_module(inp["model"])
    clear_pack_cache()
    for lo in range(0, len(requests), k):
        batch = requests[lo : lo + k]
        graphs = [inp["graphs"][c] for c, _ in batch]
        wls = [inp["workloads"][c][w] for c, w in batch]
        with tracer.span("bench.replay_batch", run=f"replay-batch-{lo // k}"):
            with tracer.span("runtime.pack_graphs"):
                packed = pack_graphs(graphs)
            with tracer.span("runtime.sweep"):
                predict_packed(model, graphs, wls, dtype="float32", packed=packed)


def probe(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    """Layer calls off the threaded service path: the float64 reference,
    plan compiles, K=1/K=8 sweeps over a slice of the mix, gateway framing,
    a replica clone, one feature-batch shared-memory round trip."""
    model, graphs, netlists = inp["model"], inp["graphs"], inp["netlists"]
    first = [wls[0] for wls in inp["workloads"]]
    for nl, graph, wl in zip(netlists, graphs, first):
        with tracer.span("circuit.fingerprint"):
            nl.fingerprint()
        with tracer.span("runtime.plan_compile"):
            plan = plan_for(nl, cache=False)  # graph build + schedule + rows
            plan.schedule(model.use_custom_batches)
            plan.feature_rows(model.use_custom_batches, np.float32)
        with tracer.span("models.predict_f64"):
            model.predict(graph, wl)
    with tracer.span("nn.clone_module"):
        clone_module(model)

    tail = (size["blocks"] + size["bursts"]) * BLOCK
    mix = _requests(inp, tail, size["warmup"])
    with BatchedPredictor(model, batch_size=8, dtype="float32") as predictor:
        predictor.predict_many(graphs, first)  # plans and shadows warm
        for k, name in ((1, "runtime.sweep_k1"), (8, "runtime.sweep_k8")):
            for lo in range(0, len(mix), k):
                batch = mix[lo : lo + k]
                with tracer.span(name):
                    predictor.predict_many(
                        [graphs[c] for c, _ in batch],
                        [inp["workloads"][c][w] for c, w in batch],
                    )

    request_bytes, result_bytes = [], []
    for i, (c, w) in enumerate(mix):
        wl = inp["workloads"][c][w]
        with tracer.span("serve.encode"):
            frame = transport.encode(("predict", i, netlists[c], wl, None, True))
        with tracer.span("serve.decode"):
            transport.decode(frame)
        request_bytes.append(len(frame))
        pred = predict_one(model, graphs[c], wl, dtype="float32")
        with tracer.span("serve.encode"):
            frame = transport.encode(("result", i, pred.tr, pred.lg))
        with tracer.span("serve.decode"):
            transport.decode(frame)
        result_bytes.append(len(frame))

    shm_bytes = shm_round_trip([np.asarray(wl.pi_probs) for wl in first], tracer, ops)
    return {
        "runtime.shm_bytes": shm_bytes,
        "serve.request_frame_bytes": sum(request_bytes) / len(request_bytes),
        "serve.result_frame_bytes": sum(result_bytes) / len(result_bytes),
    }

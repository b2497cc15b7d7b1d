"""One workload in one fresh process (spawned by ``run.py`` with the
noise pins of ``harness.PINNED_ENV`` already in the environment).

Fresh process per workload and mode: the process-wide plan/pack/sim-pack
LRUs start cold and ``ru_maxrss`` is attributable to this workload alone.
Prints every metric by name with its unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics when untraced, the per-layer metrics when traced.

A workload's ``run`` returns, per phase, a ``harness.phase`` record: the
samples of every *kind* of op it repeated unchanged.  The bounded timings
are best-of-repeats over them (``harness.best_s``), because on a shared
host interference only ever adds time; the centre, the tail and the plain
mean of the same samples are per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.add_src_to_path()

from tracer import Tracer, layer_time_under_bench, span_cost, summarize  # noqa: E402

#: Set-up repetitions of the untraced run; ``setup_s`` reports their median.
SETUP_REPS = 3


def best_ms(phase: dict) -> float:
    return 1e3 * harness.best_s(phase["kinds"])


def peak_per_s(phase: dict) -> float:
    """Fastest burst when the phase has throughput samples of its own,
    else the phase's work over its best-of-repeats time."""
    if phase["rates"]:
        return max(phase["rates"])
    return phase["work"] / harness.best_s(phase["kinds"])


def end_to_end(result: dict, startup_s: float, setup_times: list[float]) -> dict:
    return {
        "setup_s": startup_s
        + harness.median(setup_times)
        + result.get("setup_extra_s", 0.0),
        "peak_rss_mib": (harness.self_peak_rss_kib() + result.get("children_rss_kib", 0))
        / 1024.0,
        "base_peak_per_s": peak_per_s(result["base"]),
        "alt_peak_per_s": peak_per_s(result["alt"]),
        "base_best_ms": best_ms(result["base"]),
        "alt_best_ms": best_ms(result["alt"]),
    }


def per_layer(spec, tracer, result, probed, run_spans, run_wall) -> tuple[dict, dict]:
    """(measured layer metrics, span summary); undeclared names are kept so
    the caller can flag them."""
    summary = summarize(tracer.spans)
    layer = {}
    for m in spec["per_layer"]:  # "<span name>_s" = that span's summed time
        span_name = m["name"][: -len("_s")]
        if m["name"].endswith("_s") and span_name in summary:
            layer[m["name"]] = summary[span_name]["total_s"]
    layer.update(result["layer"])
    layer.update(probed)
    for prefix in ("base", "alt"):
        ops_ms = [1e3 * s for s in result[prefix]["op_s"]]
        layer[f"e2e.{prefix}_p50_ms"] = harness.percentile(ops_ms, 50)
        layer[f"e2e.{prefix}_p90_ms"] = harness.percentile(ops_ms, 90)
        layer[f"e2e.{prefix}_mean_per_s"] = result[prefix]["mean_per_s"]
    layer["trace.coverage_share"] = (
        layer_time_under_bench(tracer.spans) / result["composite_s"]
    )
    layer["trace.overhead_share"] = run_spans * span_cost() / run_wall
    return layer, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    spec = harness.load_spec()
    try:
        wl = importlib.import_module(f"wl_{args.workload}")
    except ModuleNotFoundError as exc:
        if exc.name is None or exc.name.split(".")[0] != "repro":
            raise
        print(f"cannot import {exc.name}: the benchmark runs the program in "
              f"{harness.REPO / 'src'}, which is not there", file=sys.stderr)
        return 2
    startup_s = time.time() - args.spawned_at  # interpreter + imports

    tracer = Tracer(bool(args.trace))
    ops = harness.Ops()
    size = wl.sizes(args.seconds)
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    layer, summary = {}, {}
    try:
        # Input generation repeats (same seed, same inputs) so that
        # ``setup_s`` is a median, not one draw of a noisy host.
        setup_times, prints = [], set()
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = time.perf_counter()
            inp = wl.setup(args.seed, size, tracer)
            setup_times.append(time.perf_counter() - t0)
            prints.add(tuple(inp["fingerprints"]))
        ops.record(len(prints) == 1, "set-up is not a function of --seed")

        t0 = time.perf_counter()
        result = wl.run(inp, size, tracer, ops, workdir)
        run_wall = time.perf_counter() - t0
        if args.trace:
            run_spans = len(tracer.spans)
            wl.replay(inp, result, size, tracer, ops, workdir)
            probed = wl.probe(inp, result, size, tracer, ops, workdir)
            layer, summary = per_layer(spec, tracer, result, probed, run_spans, run_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # a layer call that is not on this workload's path reads 0
        metrics = {name: float(layer.get(name, 0.0)) for name in units}
    else:
        metrics = end_to_end(result, startup_s, setup_times)
    stray = sorted((set(layer) if args.trace else set(metrics)) - set(units))
    ops.record(
        not stray and set(metrics) == set(units),
        f"reported metrics differ from BENCHMARK.json {stray}",
    )
    ops.record(all(math.isfinite(v) for v in metrics.values()), "non-finite metric")

    host = harness.host_fingerprint()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  sizes {size}")
    print("host " + json.dumps(host, sort_keys=True))
    width = max(map(len, metrics))
    for name, value in metrics.items():
        if args.trace and name not in layer:
            continue  # listed on one line below
        calls = summary.get(name[: -len("_s")]) if name.endswith("_s") else None
        note = f"   calls {calls['calls']}" if calls else ""
        print(f"  {name:<{width}}  {value:14.6g} {units[name]}{note}")
    if args.trace:
        off_path = [name for name in metrics if name not in layer]
        print(f"  0 (not on this workload's path): {' '.join(off_path)}")
        coverage = metrics["trace.coverage_share"]
        if not 0.8 <= coverage <= 1.2:
            print(f"  WARNING trace.coverage_share {coverage:.3f} outside [0.8, 1.2]: "
                  "the replay has drifted from what the program does")
        for warning in result.get("warnings", []):
            print(f"  WARNING {warning}")
        trace_path = args.out / f"trace-{args.workload}.json"
        tracer.write(
            trace_path,
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "sizes": size, "host": host},
        )
        print(f"  wrote {trace_path}")
    else:
        for prefix in ("base", "alt"):
            phase = result[prefix]
            repeats = sorted(len(k["samples"]) for k in phase["kinds"].values())
            print(f"  {prefix}: {phase['what']}; {len(phase['kinds'])} kinds of op, "
                  f"{repeats[0]}-{repeats[-1]} repeats each; whole-phase mean "
                  f"{phase['mean_per_s']:.6g} /s")
        print(f"  setup_s = {startup_s:.3f} s spawn to imports done + "
              f"{harness.median(setup_times):.3f} s median of {len(setup_times)} set-ups"
              f" + {result.get('setup_extra_s', 0.0):.3f} s start and warm-up")
        print(f"  failed_share {ops.failed / ops.attempted:.6f} "
              f"({ops.failed} of {ops.attempted} ops)")
    for reason in ops.reasons:
        print(f"  FAILED {reason}")
    print(f"  output_digest {result['digest']}")

    # what run.py's all-workloads mode reads beyond the result line
    (args.out / f"result-{args.workload}-t{args.trace}.json").write_text(
        json.dumps(
            {"digest": result["digest"], "host": host, "sizes": size,
             "base_peak_per_s": peak_per_s(result["base"]),
             "base": result["base"], "alt": result["alt"]}
        )
        + "\n"
    )
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The repo's end-to-end benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py --seed S [--workload W] [--trace 0|1]
                                 [--seconds N] [--out DIR] [--sets K] [--smoke]
    python benchmarks/e2e/run.py compare A.json B.json

With ``--workload`` and ``--trace`` it runs that one workload in one mode
(what ``BENCHMARK.json``'s command is given) and its last output line is
the result JSON.  Without them it runs every workload twice — untraced
for the end-to-end metrics, traced for the per-layer metrics — prints
both tables and writes ``DIR/results.json``.  Each workload runs in its
own fresh subprocess under ``harness.PINNED_ENV``.  Exits non-zero on any
correctness failure.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

CHILD = harness.HERE / "child.py"
DEFAULT_OUT = harness.REPO / ".bench_e2e"
#: Hard stop for one workload process, inside the 180 s the contract allows.
CHILD_TIMEOUT_S = 170.0
#: AF_UNIX paths are capped at ~107 bytes; multiprocessing's forkserver
#: socket lives at ``$TMPDIR/pymp-XXXXXXXX/listener-XXXXXXXX``.
_SOCKET_SUFFIX = len("/pymp-12345678/listener-12345678")


def _child_env(out: Path) -> dict:
    env = dict(os.environ, **harness.PINNED_ENV)
    tmp = out / "tmp"
    if len(str(tmp)) + _SOCKET_SUFFIX < 100:
        # keep interpreter temp files (forkserver sockets, spooled
        # buffers) inside the checkout as well
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def _wait_group_gone(pgid: int, grace_s: float = 10.0) -> None:
    """Block until no process of the child's session is left; kill stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:  # pragma: no cover - foreign pgid reuse
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, trace: int, out: Path,
              capture: bool) -> tuple[int, str]:
    """Run one workload process; returns (exit code, captured stdout)."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(CHILD),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--out", str(out), "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, env=_child_env(out), cwd=harness.REPO, text=True,
        stdout=subprocess.PIPE if capture else None, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        print(f"{workload}: killed after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        code = 124
    finally:
        _wait_group_gone(proc.pid)
    return code, stdout or ""


# ----------------------------------------------------------------------
# all workloads, both modes
# ----------------------------------------------------------------------

def run_set(seed: int, seconds: float, out: Path, workloads) -> tuple[dict, bool]:
    """Every workload untraced then traced; returns ({workload: row}, ok)."""
    rows, ok = {}, True
    for workload in workloads:
        row: dict = {}
        traced_base_per_s = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run_child(workload, seed, seconds, trace, out, capture=True)
            sys.stdout.write(stdout)
            sys.stdout.flush()
            ok &= code == 0
            try:
                last = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{workload} (trace {trace}): no result line", file=sys.stderr)
                ok = False
                continue
            side = json.loads((out / f"result-{workload}-t{trace}.json").read_text())
            row[key] = {n: m["value"] for n, m in last["metrics"].items()}
            row[f"{key}_ops"] = {k: last[k] for k in ("correct", "attempted", "failed")}
            row[f"{key}_digest"] = side["digest"]
            row["host"] = side["host"]
            row["sizes"] = side["sizes"]
            if trace:
                traced_base_per_s = side["base_peak_per_s"]
        if "end_to_end" in row and "per_layer" in row:
            # same work, tracer on and off: a measured cross-check of the
            # calibrated trace.overhead_share
            ratio = traced_base_per_s / row["end_to_end"]["base_peak_per_s"]
            print(f"  {workload}: base_peak_per_s traced/untraced = {ratio:.3f}")
            ok &= row["end_to_end_digest"] == row["per_layer_digest"]
        rows[workload] = row
    return rows, ok


def check_agreement(sets: list[dict], spec: dict) -> bool:
    """Two sets of the same code and seed must agree within the bounds."""
    ok = True
    first, second = sets[0], sets[1]
    for workload, row in first.items():
        other = second[workload]
        for m in spec["end_to_end"]:
            a, b = row["end_to_end"][m["name"]], other["end_to_end"][m["name"]]
            if abs(b - a) / a > m["bound"]:
                print(f"DISAGREE {workload} {m['name']}: {a:.6g} vs {b:.6g} "
                      f"(bound {m['bound']:.0%})")
                ok = False
        for key in ("end_to_end_digest", "per_layer_digest"):
            if row[key] != other[key]:
                print(f"DISAGREE {workload} {key}")
                ok = False
        for name in (m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")):
            if name.startswith("serve."):
                continue  # timing-dependent counts of the multi-threaded phases
            if row["per_layer"][name] != other["per_layer"][name]:
                print(f"DISAGREE {workload} {name}: {row['per_layer'][name]} "
                      f"vs {other['per_layer'][name]}")
                ok = False
    return ok


def print_summary(rows: dict, spec: dict) -> None:
    names = list(rows)
    print("\nend-to-end (untraced run)")
    print(f"  {'metric':<15} {'unit':<5} {'bound':>5}  " + "  ".join(f"{w:>13}" for w in names))
    for m in spec["end_to_end"]:
        cells = "  ".join(f"{rows[w]['end_to_end'][m['name']]:13.5g}" for w in names)
        print(f"  {m['name']:<15} {m['unit']:<5} {m['bound']:>5.0%}  {cells}")
    cells = "  ".join(
        f"{rows[w]['end_to_end_ops']['failed'] / rows[w]['end_to_end_ops']['attempted']:13.5g}"
        for w in names
    )
    print(f"  {'failed_share':<15} {'ratio':<5} {'0':>5}  {cells}")
    print("\nper-layer (traced run; 0 = not on this workload's path)")
    for m in spec["per_layer"]:
        cells = "  ".join(f"{rows[w]['per_layer'][m['name']]:13.5g}" for w in names)
        print(f"  {m['name']:<36} {m['unit']:<7} {cells}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _verdict(metric: dict, a: list[float], b: list[float]) -> tuple[str, float, float]:
    ma, mb = harness.median(a), harness.median(b)
    lower = metric["better"] == "lower"
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    spreads = [harness.spread(v) for v in (a, b) if len(v) >= 2]
    if spreads and max(spreads) > metric["bound"]:
        clean_win = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if clean_win else "unresolved"), ma, mb
    return ("regressed" if worse > metric["bound"] else "ok"), ma, mb


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (metric, workload): both medians, bound, verdict."""
    spec = harness.load_spec()
    docs = [json.loads(p.read_text()) for p in (path_a, path_b)]
    regressed = False
    print(f"{'workload':<13} {'metric':<15} {'A median':>12} {'B median':>12} "
          f"{'bound':>6}  verdict")
    for workload in docs[0]["sets"][0]:
        for m in spec["end_to_end"]:
            values = [
                [s[workload]["end_to_end"][m["name"]] for s in doc["sets"] if workload in s]
                for doc in docs
            ]
            if not values[1]:
                continue
            verdict, ma, mb = _verdict(m, *values)
            regressed |= verdict == "regressed"
            print(f"{workload:<13} {m['name']:<15} {ma:12.5g} {mb:12.5g} "
                  f"{m['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))

    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="one second per run: sizes cut ~20x, for the smoke test")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.smoke else args.seconds

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        code, _ = run_child(args.workload, args.seed, seconds, args.trace, args.out,
                            capture=False)
        return code

    workloads = (args.workload,) if args.workload else harness.WORKLOADS
    sets, ok = [], True
    for index in range(args.sets):
        if args.sets > 1:
            print(f"==== set {index + 1} of {args.sets}")
        rows, set_ok = run_set(args.seed, seconds, args.out, workloads)
        ok &= set_ok
        if len(rows) == len(workloads) and all(
            "end_to_end" in r and "per_layer" in r for r in rows.values()
        ):
            sets.append(rows)
            print_summary(rows, spec)
    if sets:
        doc = {"seed": args.seed, "seconds": seconds, "sets": sets}
        path = args.out / "results.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"\nwrote {path}")
    if args.sets >= 2 and len(sets) >= 2:
        agreed = check_agreement(sets, spec)
        print("self-agreement: " + ("ok" if agreed else "FAILED"))
        ok &= agreed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared plumbing of the end-to-end benchmark: pinned environment, host
fingerprint, percentiles, memory readings, op accounting, seed derivation.

Nothing here imports numpy at module level: ``run.py`` imports this file
in the parent process, which must stay numpy-free so the BLAS thread pins
in :data:`PINNED_ENV` are in the child's environment before its first
``import numpy``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"

#: Noise pins for every workload process.  With OpenBLAS at its default
#: thread count on a 2-core host, ``predict_one(float32)`` on the 989-node
#: design read 14 ms in one process and 64 ms in the next; pinned to one
#: thread it read 14-16 ms in 3 of 3.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

WORKLOADS = ("label_corpus", "large_design", "pretrain", "serve_mixed")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD commit when the checkout is a git repository, else ``unknown``."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def host_fingerprint() -> dict:
    """What a number from this run may be compared against."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "usable_cpus": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _commit(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(float(v) for v in values)


def best_s(kinds: dict) -> float:
    """Best-of-repeats time of a phase, in seconds.

    ``kinds`` maps the name of an op that the run repeated *unchanged*
    (same inputs, same cache state) to ``{"weight": w, "samples": [s, ...]}``.
    Per kind the fastest repeat is taken — interference from co-tenants of
    the host only ever adds time — and the kinds are summed by weight.
    """
    return sum(k["weight"] * min(k["samples"]) for k in kinds.values())


def phase(kinds: dict, work: float, op_s, total_work: float, wall_s: float,
          what: str, rates=None) -> dict:
    """One phase's timings in the shape ``child.py`` reads.

    ``work`` is what one weighted pass over ``kinds`` completes (labels,
    passes, samples), ``op_s`` the whole-op latencies behind the median
    and p90, ``total_work / wall_s`` the phase's plain mean rate, cold
    start and spawn included, and ``rates`` — when the phase has
    throughput samples of its own — the completed/s of each burst.
    """
    return {
        "kinds": kinds, "work": work, "op_s": list(op_s),
        "mean_per_s": total_work / wall_s, "what": what,
        "rates": None if rates is None else list(rates),
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / q2


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

def self_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def descendant_peak_rss_kib() -> int:
    """Largest ``VmHWM`` among this process's live descendants (Linux).

    Worker processes of the DDP executor and the gateway are children of
    the multiprocessing forkserver, not of this process, so
    ``RUSAGE_CHILDREN`` does not see them until the forkserver itself is
    reaped.  Reading ``/proc`` while they are alive does.
    """
    parents: dict[int, int] = {}
    try:
        entries = [e for e in os.listdir("/proc") if e.isdigit()]
    except OSError:
        return 0
    for entry in entries:
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces/parens.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    me = os.getpid()
    peak = 0
    for pid in parents:
        cursor = pid
        while cursor in parents and cursor != me and cursor > 1:
            cursor = parents[cursor]
        if cursor != me or pid == me:
            continue
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


# ----------------------------------------------------------------------
# op accounting and digests
# ----------------------------------------------------------------------

class Ops:
    """Attempted / failed operation counts with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "", count: int = 1) -> None:
        """``count`` ops that all passed (``ok``) or all failed for ``reason``."""
        self.attempted += count
        if not ok and count:
            self.failed += count
            if len(self.reasons) < 8:
                self.reasons.append(reason)


def digest_arrays(arrays) -> str:
    """SHA-256 over the raw bytes of ``arrays``, in order."""
    import numpy as np

    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------

def seed_sequence(seed: int, workload: str):
    """Root ``SeedSequence`` of one workload under ``--seed``."""
    import numpy as np

    return np.random.SeedSequence([int(seed), WORKLOADS.index(workload)])


def seed_int(seq) -> int:
    """One 31-bit integer seed from a ``SeedSequence`` (for int-seeded APIs)."""
    return int(seq.generate_state(1)[0] & 0x7FFFFFFF)


def add_src_to_path() -> None:
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

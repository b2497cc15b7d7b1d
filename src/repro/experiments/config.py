"""Experiment scaling: "quick" (CPU-minutes) vs "paper" (full-scale) modes.

Training a recurrent DAG-GNN in pure numpy runs ~2 orders of magnitude
slower than the paper's GPU/PyG setup, so every experiment driver accepts
an :class:`ExperimentScale`.  ``QUICK`` reproduces the *shape* of every
table (model ranking, relative improvements, crossovers) within a few
minutes on a laptop CPU; ``PAPER`` uses the publication's parameters
(10,534 circuits, 10,000-cycle workloads, 50 epochs, T=10, d=64, 1,000
fine-tuning workloads) and is what you run when you have the hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["ExperimentScale", "QUICK", "PAPER", "get_scale", "ServeConfig"]


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs an experiment driver needs, in one bundle.

    Attributes:
        name: scale label used in report headers.
        family_counts: training sub-circuits per benchmark family.
        sim_cycles / sim_streams: simulated cycles per stream and parallel
            bit lanes; effective sample count is their product (the paper's
            10,000-cycle single-stream workload = 64 lanes x 157 cycles).
        hidden / iterations: model width d and recurrence depth T.
        epochs / lr / batch_size: pre-training schedule.  The quick mode
            compensates for few epochs with a larger learning rate.  A
            process trains each distinct pretrain once, in memory
            (:func:`repro.experiments.common.pretrain`).
        design_scale: node-count multiplier for the six large test designs
            during *training-bearing* experiments (Tables V-VII quick mode
            uses 1/8-scale stand-ins; Table IV always reports full scale).
        finetune_workloads / finetune_epochs: per-design fine-tuning.
        table6_workloads: workload count for the ac97_ctrl sweep.
        reliability_circuits: circuits used for the reliability fine-tune.
        seed: global seed; every derived seed mixes this.
    """

    name: str
    family_counts: dict[str, int] = field(
        default_factory=lambda: {"iscas89": 6, "itc99": 6, "opencores": 12}
    )
    sim_cycles: int = 120
    sim_streams: int = 64
    hidden: int = 32
    iterations: int = 4
    epochs: int = 30
    lr: float = 5e-3
    batch_size: int = 4
    design_scale: float = 0.0625
    finetune_workloads: int = 8
    finetune_epochs: int = 6
    finetune_lr: float = 5e-3
    #: PI activity of fine-tuning/testing workloads on the large designs.
    #: Real testbenches exercise the design; fully-parked workloads leave
    #: GT power near zero and make relative errors meaningless.
    workload_activity: float = 0.55
    table6_workloads: int = 5
    reliability_circuits: int = 10
    seed: int = 0
    #: Pre-training LR schedule (``constant`` | ``cosine`` | ``step``) and
    #: gradient-accumulation group size, forwarded to the trainer.
    schedule: str = "constant"
    grad_accum: int = 1
    #: Data-parallel pre-training worker processes (0 = in-process).  The
    #: fixed-order all-reduce makes the trained parameters bitwise
    #: identical at any value; the coordinator trains a share too, so set
    #: ``grad_accum >= train_workers + 1`` for every rank to get work.
    train_workers: int = 0
    #: Data-factory pool size for label generation (None = auto-size to
    #: the CPUs this process may use, 0 = serial in-process).
    data_workers: int | None = None
    #: On-disk label-cache directory (None = in-memory LRU only).  Point
    #: repeated table regenerations / CI jobs at one directory and
    #: identical (circuit, workload, config) labels are never re-simulated.
    data_cache_dir: str | None = None

    @property
    def effective_samples(self) -> int:
        return self.sim_cycles * self.sim_streams


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the multi-worker serving subsystem (:mod:`repro.serve`).

    Attributes:
        workers: model replicas / worker threads (K).  Each worker holds
            its own parameter copy (cloned through :mod:`repro.nn.serialize`)
            so packed sweeps run without cross-worker parameter locking.
        batch_size: micro-batch size — a worker flushes as soon as this
            many requests are pending.
        max_latency_ms: how long a partial batch waits for companions
            while another batch is in flight — a worker flushes once the
            *oldest* pending request has queued this long.  With nothing in
            flight a request is dispatched at once, so with ``workers=1``
            the knob never delays a dispatch; with more workers it trades
            latency (small values) against packing efficiency (large).
        dtype: execution dtype; ``"float64"`` serves results bitwise-equal
            to sequential ``RecurrentDagGnn.predict``, ``"float32"`` is the
            fast path (~1e-4 max-abs on probabilities).
        max_pending: admission-queue bound; :meth:`repro.serve.Server.submit`
            blocks (or rejects, per call) once this many requests wait.
        deadline_ms: default per-request deadline — a request still queued
            this long after admission fails with ``DeadlineExceeded``
            instead of running stale.  ``None`` disables expiry.
        max_concurrent_sweeps: packed sweeps allowed to execute
            simultaneously.  ``None`` sizes it to the CPUs this process
            may actually use — oversubscribing compute threads beyond
            cores only adds interpreter switching and cache thrash.
            Queue management and future resolution still overlap freely.
        mp_start_method: multiprocessing start method for the gateway's
            worker processes (and anything else that asks
            :func:`repro.runtime.mp.resolve_mp_context`).  ``None`` picks
            the safest available (forkserver, else spawn); default ``fork``
            is never used implicitly because forking a threaded parent
            copies held locks into the child.
        host / port: bind address of the :class:`repro.serve.Gateway`
            socket front door.  Port 0 (default) picks an ephemeral port,
            published as ``gateway.address``.
        shm_arena_mb: size in MiB of *each* per-worker shared-memory
            arena (one feature arena + one result arena per worker).
            Requests whose buffers overflow the arena fall back to inline
            pickling — correct, just slower.
        restart_backoff_ms / restart_backoff_max_ms: bounded exponential
            backoff for respawning a crashed worker process: first restart
            after ``restart_backoff_ms``, doubling per consecutive crash
            up to ``restart_backoff_max_ms``.
    """

    workers: int = 2
    batch_size: int = 8
    max_latency_ms: float = 50.0
    dtype: str = "float64"
    max_pending: int = 256
    deadline_ms: float | None = None
    max_concurrent_sweeps: int | None = None
    mp_start_method: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    shm_arena_mb: float = 4.0
    restart_backoff_ms: float = 50.0
    restart_backoff_max_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_latency_ms <= 0:
            raise ValueError("max_latency_ms must be positive")
        if self.max_pending < self.batch_size:
            raise ValueError("max_pending must be >= batch_size")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.max_concurrent_sweeps is not None and self.max_concurrent_sweeps < 1:
            raise ValueError("max_concurrent_sweeps must be >= 1 (or None)")
        if self.mp_start_method not in (None, "forkserver", "spawn", "fork"):
            raise ValueError(
                "mp_start_method must be None, 'forkserver', 'spawn' or 'fork', "
                f"got {self.mp_start_method!r}"
            )
        if not (0 <= self.port <= 65535):
            raise ValueError("port must be in [0, 65535]")
        if self.shm_arena_mb <= 0:
            raise ValueError("shm_arena_mb must be positive")
        if self.restart_backoff_ms <= 0 or self.restart_backoff_max_ms <= 0:
            raise ValueError("restart backoff values must be positive")
        if self.restart_backoff_max_ms < self.restart_backoff_ms:
            raise ValueError("restart_backoff_max_ms must be >= restart_backoff_ms")


QUICK = ExperimentScale(name="quick")

PAPER = ExperimentScale(
    name="paper",
    family_counts={"iscas89": 1159, "itc99": 1691, "opencores": 7684},
    sim_cycles=157,
    sim_streams=64,  # 157 x 64 ~ 10,000 effective cycles
    hidden=64,
    iterations=10,
    epochs=50,
    lr=1e-4,
    batch_size=4,
    design_scale=1.0,
    finetune_workloads=1000,
    finetune_epochs=50,
    finetune_lr=1e-4,
    table6_workloads=5,
    reliability_circuits=200,
    workload_activity=0.55,
)

_SCALES = {"quick": QUICK, "paper": PAPER}


def get_scale(name: str = "quick", **overrides) -> ExperimentScale:
    """Look up a scale by name, optionally overriding fields."""
    try:
        scale = _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None
    return replace(scale, **overrides) if overrides else scale

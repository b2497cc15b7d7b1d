"""Multi-task training loop (paper Sections III-A, IV-A3).

Training minimizes ``L = L_TR + L_LG`` — the sum of per-task L1 losses —
with ADAM at 1e-4 for 50 epochs, using topological batching to merge
several circuits per optimization step.

The hot loop runs on the :mod:`repro.runtime` subsystem: minibatches are
packed into compiled super-graph plans (:func:`repro.runtime.trainstep
.pack_samples`), shared with the serving path through the process-wide
plan/pack caches.  On top of the paper's schedule the trainer supports
gradient accumulation, cosine/step LR decay, early stopping on validation
error, resumable checkpointing, and **deterministic data-parallel
execution**: with ``train_workers=W`` each gradient-accumulation group is
sharded over W worker processes plus the coordinator, which trains its
own share in-process while the workers train theirs
(:mod:`repro.runtime.ddp`), and because per-batch gradients are
all-reduced in a reduction tree pinned to batch position — never to
worker layout — the final parameters are bitwise-identical at any worker
count, including the in-process sequential path.  An interrupted run
resumed from its checkpoint lands on bitwise-identical final parameters
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.models.base import RecurrentDagGnn
from repro.nn.optim import Adam, make_schedule
from repro.nn.serialize import load_checkpoint, save_checkpoint
from repro.runtime.ddp import (
    DdpGradExecutor,
    LocalGradExecutor,
    reduce_gradients,
)
from repro.runtime.trainstep import minibatch_membership
from repro.train.dataset import CircuitSample
from repro.train.metrics import EvalMetrics, avg_prediction_error

__all__ = ["TrainConfig", "EpochStats", "Trainer", "evaluate"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule; defaults follow the paper.

    Beyond the paper's constant-LR ADAM run, the config exposes the
    training-runtime knobs:

    * ``grad_accum`` — number of minibatches whose gradients accumulate
      into one optimizer step (the backpropagated loss is scaled by the
      group size, so the step descends the group-mean gradient).
    * ``train_workers`` — data-parallel worker processes.  ``0`` (default)
      trains in-process; ``W >= 1`` shards every gradient-accumulation
      group over W + 1 ranks: W replica processes, then the coordinator
      itself (batch position ``p`` goes to rank ``p % (W + 1)``).  The
      sharding unit is the group, so parallelism needs
      ``grad_accum >= train_workers + 1`` to use every rank (the typical
      setting is ``grad_accum = train_workers + 1`` or a multiple); either
      way the parameter trajectory is bitwise-identical to the sequential
      run with the same config and seed.
    * ``mp_start_method`` — start method for the worker processes
      (``None`` picks forkserver, else spawn; default fork is never used
      implicitly — see :mod:`repro.runtime.mp`).
    * ``schedule`` — ``constant`` | ``cosine`` | ``step`` epoch-indexed
      learning-rate decay (``lr_min``, ``lr_step_size``, ``lr_gamma``).
    * ``early_stop_patience`` — stop after this many epochs without
      improvement of the monitored value (validation error when a
      validation set is passed to :meth:`Trainer.train`, else training
      loss) by more than ``early_stop_min_delta``.
    * ``checkpoint_path``/``checkpoint_every`` — write a resumable
      checkpoint (parameters + optimizer state + RNG + epoch) every K
      epochs; ``resume=True`` continues from it.
      ``stop_after`` bounds the epochs executed in *this* invocation
      (time-budgeted sessions / interruption testing) — the schedule
      itself stays ``epochs`` long.
    """

    epochs: int = 50
    lr: float = 1e-4
    batch_size: int = 4
    seed: int = 0
    shuffle: bool = True
    lg_weight: float = 1.0
    tr_weight: float = 1.0
    verbose: bool = False
    grad_accum: int = 1
    train_workers: int = 0
    mp_start_method: str | None = None
    schedule: str = "constant"
    lr_min: float = 0.0
    lr_step_size: int = 10
    lr_gamma: float = 0.5
    early_stop_patience: int | None = None
    early_stop_min_delta: float = 0.0
    checkpoint_path: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    stop_after: int | None = None


@dataclass
class EpochStats:
    """Per-epoch averages of the *unpacked* per-circuit losses.

    ``loss``/``loss_tr``/``loss_lg`` average each member circuit's own L1
    mean (every circuit counts equally, regardless of node count).
    ``val_pe`` is the validation prediction error when a validation set
    was provided, else ``None``.
    """

    epoch: int
    loss: float
    loss_tr: float
    loss_lg: float
    lr: float = 0.0
    val_pe: float | None = None


_HISTORY_COLS = 6


def _history_to_array(history: list[EpochStats]) -> np.ndarray:
    rows = [
        [h.epoch, h.loss, h.loss_tr, h.loss_lg, h.lr,
         np.nan if h.val_pe is None else h.val_pe]
        for h in history
    ]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), _HISTORY_COLS)


def _history_from_array(arr: np.ndarray | None) -> list[EpochStats]:
    if arr is None or arr.size == 0:
        return []
    return [
        EpochStats(
            epoch=int(row[0]), loss=row[1], loss_tr=row[2], loss_lg=row[3],
            lr=row[4], val_pe=None if np.isnan(row[5]) else float(row[5]),
        )
        for row in np.asarray(arr).reshape(-1, _HISTORY_COLS)
    ]


@dataclass
class Trainer:
    """Trains any :class:`RecurrentDagGnn` on :class:`CircuitSample` lists."""

    config: TrainConfig = field(default_factory=TrainConfig)

    def train(
        self,
        model: RecurrentDagGnn,
        dataset: Sequence[CircuitSample],
        optimizer: Adam | None = None,
        val_dataset: Sequence[CircuitSample] | None = None,
    ) -> list[EpochStats]:
        """Run the schedule; returns per-epoch loss statistics.

        ``dataset`` is any sequence of samples (``len`` and indexing).

        When resuming (``config.resume`` with an existing checkpoint), the
        returned history includes the checkpointed epochs, so the caller
        always sees the full run.  The parameter trajectory is
        worker-count-independent, so a run may resume on any worker count.
        """
        if not len(dataset):
            raise ValueError("empty dataset")
        cfg = self.config
        if cfg.train_workers < 0:
            raise ValueError("train_workers must be >= 0")
        opt = optimizer or Adam(model.parameters(), lr=cfg.lr)
        schedule = make_schedule(
            cfg.schedule, cfg.lr, cfg.epochs,
            min_lr=cfg.lr_min, step_size=cfg.lr_step_size, gamma=cfg.lr_gamma,
        )
        rng = np.random.default_rng(cfg.seed)
        # Membership is drawn from the fresh seed stream *before* any
        # resume, so a resumed run rebuilds identical minibatches and the
        # restored RNG state continues the epoch-shuffle stream exactly.
        membership = minibatch_membership(len(dataset), cfg.batch_size, rng)
        history: list[EpochStats] = []
        start_epoch = 0
        best = np.inf
        bad_epochs = 0
        stopped = False
        ckpt_path = Path(cfg.checkpoint_path) if cfg.checkpoint_path else None
        if cfg.resume and ckpt_path is not None and ckpt_path.exists():
            ckpt = load_checkpoint(ckpt_path, model, opt)
            if ckpt.rng_state is not None:
                ckpt.restore_rng(rng)
            start_epoch = ckpt.epoch + 1
            history = _history_from_array(ckpt.extra.get("history"))
            best = float(ckpt.extra.get("best", np.inf))
            bad_epochs = int(ckpt.extra.get("bad_epochs", 0))
            stopped = bool(ckpt.extra.get("stopped", False))
            if stopped:
                # The checkpointed run already early-stopped; re-invoking
                # with the same config must not keep nudging parameters.
                return history

        def save(epoch: int) -> None:
            save_checkpoint(
                ckpt_path, model, opt, epoch=epoch, rng=rng,
                extra={
                    "history": _history_to_array(history),
                    "best": np.asarray(best),
                    "bad_epochs": np.asarray(bad_epochs),
                    "stopped": np.asarray(stopped),
                },
            )

        batch_members = [[dataset[i] for i in members] for members in membership]
        if cfg.train_workers > 0:
            executor = DdpGradExecutor(
                model,
                batch_members,
                workers=cfg.train_workers,
                tr_weight=cfg.tr_weight,
                lg_weight=cfg.lg_weight,
                grad_accum=cfg.grad_accum,
                mp_start_method=cfg.mp_start_method,
            )
        else:
            executor = LocalGradExecutor(
                model, batch_members,
                tr_weight=cfg.tr_weight, lg_weight=cfg.lg_weight,
            )

        accum = max(1, cfg.grad_accum)
        executed = 0
        last_saved = start_epoch - 1
        n_batches = len(membership)
        try:
            for epoch in range(start_epoch, cfg.epochs):
                if cfg.stop_after is not None and executed >= cfg.stop_after:
                    break
                executed += 1
                opt.lr = schedule.lr_at(epoch)
                order = (
                    rng.permutation(n_batches)
                    if cfg.shuffle
                    else np.arange(n_batches)
                )
                tot = tot_tr = tot_lg = 0.0
                members = 0
                for lo in range(0, len(order), accum):
                    group = [int(i) for i in order[lo : lo + accum]]
                    scale = 1.0 / len(group)
                    results = executor.run_group([(i, scale) for i in group])
                    # Fixed-order all-reduce: the tree is pinned to batch
                    # position within the group, so this sum — and hence
                    # the step — is identical at any worker count.
                    opt.apply_gradients(
                        reduce_gradients([r.grads for r in results])
                    )
                    for r in results:
                        tot_tr += r.member_tr.sum()
                        tot_lg += r.member_lg.sum()
                        tot += (
                            cfg.tr_weight * r.member_tr
                            + cfg.lg_weight * r.member_lg
                        ).sum()
                        members += r.member_tr.size
                stats = EpochStats(
                    epoch, tot / members, tot_tr / members, tot_lg / members,
                    lr=opt.lr,
                )
                if val_dataset:
                    ev = evaluate(model, val_dataset, batch_size=cfg.batch_size)
                    stats.val_pe = 0.5 * (ev.pe_tr + ev.pe_lg)
                history.append(stats)
                if cfg.verbose:
                    val = "" if stats.val_pe is None else f"  val {stats.val_pe:.4f}"
                    print(
                        f"epoch {epoch:3d}  loss {stats.loss:.4f} "
                        f"(tr {stats.loss_tr:.4f}, lg {stats.loss_lg:.4f})"
                        f"  lr {stats.lr:.2e}{val}"
                    )
                if cfg.early_stop_patience is not None:
                    monitored = stats.val_pe if stats.val_pe is not None else stats.loss
                    if monitored < best - cfg.early_stop_min_delta:
                        best = monitored
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                        stopped = bad_epochs >= cfg.early_stop_patience
                due = (epoch + 1 - start_epoch) % max(1, cfg.checkpoint_every) == 0
                if ckpt_path is not None and (due or stopped or epoch + 1 == cfg.epochs):
                    save(epoch)
                    last_saved = epoch
                if stopped:
                    if cfg.verbose:
                        print(f"early stop at epoch {epoch} (patience exhausted)")
                    break
            if (
                ckpt_path is not None
                and history
                and history[-1].epoch > last_saved
            ):
                save(history[-1].epoch)
        finally:
            executor.close()
        return history


def evaluate(
    model: RecurrentDagGnn,
    dataset: Sequence[CircuitSample],
    batch_size: int = 8,
    dtype=np.float64,
) -> EvalMetrics:
    """Average prediction error of ``model`` over ``dataset`` (Eq. 9).

    Inference runs through the batched runtime: circuits are packed
    ``batch_size`` at a time into one levelized sweep.  The default
    float64 dtype makes the metrics bit-identical to sequential
    per-circuit ``predict`` calls; pass float32 for the fast path when
    evaluating large corpora.
    """
    from repro.runtime import BatchedPredictor

    predictor = BatchedPredictor(model, batch_size=max(1, batch_size), dtype=dtype)
    preds = predictor.predict_many(
        [s.graph for s in dataset], [s.workload for s in dataset]
    )
    errs_tr: list[float] = []
    errs_lg: list[float] = []
    nodes = 0
    for sample, pred in zip(dataset, preds):
        errs_tr.append(avg_prediction_error(pred.tr, sample.target_tr))
        errs_lg.append(avg_prediction_error(pred.lg, sample.target_lg))
        nodes += sample.num_nodes
    return EvalMetrics(
        pe_tr=float(np.mean(errs_tr)),
        pe_lg=float(np.mean(errs_lg)),
        num_circuits=len(dataset),
        num_nodes=nodes,
    )

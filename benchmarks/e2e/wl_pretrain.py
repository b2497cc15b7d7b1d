"""Workload ``pretrain``: labelled corpus in, trained parameters out.

A corpus of family sub-circuits is labelled at 60 cycles in set-up; a
DeepSeq (``hidden=32, iterations=4``) then trains with ``batch_size=4,
grad_accum=2, lr=1e-3``.  **base** phase: ``Trainer.train`` in-process
(``train_workers=0``).  **alt** phase: the same schedule from the same
initial weights with ``train_workers=1`` — every step goes through the
``runtime.ddp`` protocol and ``runtime.shm`` to one worker process, so
``alt`` over ``base`` is the protocol's overhead.  Both must end on
bitwise-equal parameters.

``shuffle=False``: the minibatches are drawn from the seed as always, but
every epoch visits them in the same order, so optimizer step ``j`` of an
epoch is the *same op* in every epoch — same two batches, same plans —
and its repeats can be compared.  Cold start (plan/pack compile, worker
spawn) lands in step 0 of epoch 0 and so in the whole-phase mean, not in
the best-of-repeats figures.

One worker, not two: on the 2-vCPU reference host two workers plus the
coordinator see a second core only some of the time, and the step time
of ``train_workers=2`` reads 170 ms in one run and 350 ms in the next.
The traced run records it as ``runtime.ddp_w2_samples_per_s``.

The timed op is one optimizer step: a thin ``Adam`` subclass handed to
``Trainer.train(optimizer=...)`` stamps the clock after each
``apply_gradients``.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from repro.data import DataFactory, FactoryConfig
from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.nn.optim import Adam
from repro.nn.serialize import clone_module, dumps_state
from repro.runtime.ddp import reduce_gradients
from repro.runtime.pack import clear_pack_cache, pack_cache_info
from repro.runtime.plan import clear_plan_cache, plan_cache_info
from repro.runtime.trainstep import minibatch_membership, pack_samples, train_step
from repro.sim.logicsim import SimConfig
from repro.train.trainer import TrainConfig, Trainer, evaluate

from harness import (
    Ops,
    descendant_peak_rss_kib,
    percentile,
    phase,
    seed_int,
    seed_sequence,
)
from inputs import matched_subcircuits
from probes import shm_round_trip
from tracer import Tracer

NAME = "pretrain"

BATCH, ACCUM, LR = 4, 2, 1e-3
LABEL_SIM = SimConfig(cycles=60)


def sizes(seconds: float) -> dict:
    """~0.04 s per sample-epoch in either phase, ~1.5 s of worker spawn.

    8 per family = 6 full batches = 3 steps of 2 batches an epoch (~1 s);
    one more epoch is one more repeat of every step.
    """
    return {
        "per_family": 8 if seconds >= 5 else 4,
        "val_per_family": 4 if seconds >= 5 else 2,
        "epochs": max(2, round(0.5 * seconds)),
    }


def setup(seed: int, size: dict, tracer: Tracer) -> dict:
    train_seq, val_seq, label_seq, fit_seq = seed_sequence(seed, NAME).spawn(4)
    with tracer.span("circuit.generate"):
        circuits = matched_subcircuits(train_seq, size["per_family"], 150, 300)
        held_out = matched_subcircuits(val_seq, size["val_per_family"], 150, 300)
    factory = DataFactory(FactoryConfig(workers=0))
    label_seed = seed_int(label_seq)
    with tracer.span("data.build"):
        dataset = factory.build(circuits, LABEL_SIM, seed=label_seed)
        val = factory.build(held_out, LABEL_SIM, seed=label_seed + 1)
    return {
        "dataset": dataset,
        "val": val,
        "train_seed": seed_int(fit_seq),
        "fingerprints": [nl.fingerprint() for nl in circuits + held_out],
    }


class StampedAdam(Adam):
    """Adam that records when each optimizer step finished."""

    def __init__(self, params, lr: float, total_steps: int, on_last_step=None):
        super().__init__(params, lr=lr)
        self.stamps: list[float] = []
        self._total = total_steps
        self._on_last = on_last_step

    def apply_gradients(self, grads) -> None:
        super().apply_gradients(grads)
        self.stamps.append(time.perf_counter())
        if self._on_last is not None and len(self.stamps) == self._total:
            self._on_last()


def fresh_model() -> DeepSeq:
    return DeepSeq(ModelConfig(hidden=32, iterations=4, seed=0))


def param_digest(model) -> str:
    return hashlib.sha256(dumps_state(model.state_dict())).hexdigest()


def steps_per_epoch(n_samples: int) -> int:
    n_batches = -(-n_samples // BATCH)
    return -(-n_batches // ACCUM)


def train_config(inp: dict, epochs: int, workers: int) -> TrainConfig:
    return TrainConfig(
        epochs=epochs, lr=LR, batch_size=BATCH, grad_accum=ACCUM,
        train_workers=workers, seed=inp["train_seed"], shuffle=False,
    )


def fit(inp: dict, epochs: int, workers: int, tracer: Tracer, span: str):
    """One ``Trainer.train``; returns (model, wall, step intervals, child rss)."""
    model = fresh_model()
    child_rss = [0]

    def sample_children() -> None:
        child_rss[0] = descendant_peak_rss_kib()

    optimizer = StampedAdam(
        model.parameters(), LR,
        total_steps=epochs * steps_per_epoch(len(inp["dataset"])),
        on_last_step=sample_children if workers else None,
    )
    t0 = time.perf_counter()
    with tracer.span(span):
        history = Trainer(train_config(inp, epochs, workers)).train(
            model, inp["dataset"], optimizer=optimizer
        )
    wall = time.perf_counter() - t0
    stamps = [t0, *optimizer.stamps]
    steps = [b - a for a, b in zip(stamps, stamps[1:])]
    finite = all(np.isfinite(h.loss) for h in history) and len(history) == epochs
    return model, wall, steps, child_rss[0], finite


def run(inp: dict, size: dict, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    epochs, n = size["epochs"], len(inp["dataset"])
    spe = steps_per_epoch(n)

    seq_model, seq_wall, seq_steps, _, seq_ok = fit(inp, epochs, 0, tracer, "train.train_seq")
    plans, packs = plan_cache_info(), pack_cache_info()
    ddp_model, ddp_wall, ddp_steps, child_rss, ddp_ok = fit(
        inp, epochs, 1, tracer, "train.train_ddp"
    )
    for steps, ok, tag in ((seq_steps, seq_ok, "seq"), (ddp_steps, ddp_ok, "ddp")):
        ops.record(
            ok and len(steps) == epochs * spe,
            f"{tag} training ran {len(steps)} of {epochs * spe} steps or diverged",
        )
    seq_digest, ddp_digest = param_digest(seq_model), param_digest(ddp_model)
    ops.record(
        seq_digest == ddp_digest,
        "final parameters differ between train_workers=0 and train_workers=1",
    )

    with tracer.span("train.evaluate"):
        ev = evaluate(seq_model, inp["val"], batch_size=BATCH)
    val_pe = 0.5 * (ev.pe_tr + ev.pe_lg)
    ops.record(bool(0.0 < val_pe < 1.0), f"validation error {val_pe} out of range")

    first_epoch = sum(seq_steps[:spe])

    def step_phase(steps: list[float], wall: float, workers: int) -> dict:
        return phase(
            # step j of every epoch is the same two batches
            kinds={
                f"step{j}": {"weight": 1.0 / spe, "samples": steps[j::spe]}
                for j in range(spe)
            },
            work=n / spe,
            op_s=steps,
            total_work=epochs * n,
            wall_s=wall,
            what=f"optimizer steps of Trainer.train(train_workers={workers}), "
            f"{epochs} epochs of {n} samples",
        )

    return {
        "base": step_phase(seq_steps, seq_wall, 0),
        "alt": step_phase(ddp_steps, ddp_wall, 1),
        "children_rss_kib": child_rss,
        "digest": hashlib.sha256(f"{seq_digest}:{val_pe!r}".encode()).hexdigest(),
        "seq_digest": seq_digest,
        "composite_s": seq_wall,
        "layer": {
            "train.first_epoch_s": first_epoch,
            "train.steady_epoch_s": (
                (sum(seq_steps) - first_epoch) / (epochs - 1) if epochs > 1 else 0.0
            ),
            "train.val_pe": val_pe,
            "runtime.ddp_protocol_overhead_share": (ddp_wall - seq_wall) / seq_wall,
            "runtime.plan_cache_hit_share": plans.hits / max(1, plans.hits + plans.misses),
            "runtime.pack_cache_hit_share": packs.hits / max(1, packs.hits + packs.misses),
        },
    }


def replay(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> None:
    """The in-process ``Trainer.train`` as its public layer calls: pack the
    minibatches, then per group ``train_step`` each batch, tree-reduce the
    gradients and step the optimizer — same seed, so same final weights."""
    dataset = inp["dataset"]
    clear_plan_cache()
    clear_pack_cache()
    model = fresh_model()
    params = model.parameters()
    optimizer = Adam(params, lr=LR)
    rng = np.random.default_rng(inp["train_seed"])
    membership = minibatch_membership(len(dataset), BATCH, rng)
    with tracer.span("bench.replay_train", run="replay-train"):
        with tracer.span("runtime.pack_samples"):
            batches = [pack_samples([dataset[i] for i in m]) for m in membership]
        for _ in range(size["epochs"]):
            order = np.arange(len(batches))  # shuffle=False
            for lo in range(0, len(order), ACCUM):
                group = [int(i) for i in order[lo : lo + ACCUM]]
                grads = []
                for bi in group:
                    with tracer.span("nn.optim_step"):
                        model.zero_grad()
                    with tracer.span("runtime.train_step"):
                        train_step(model, batches[bi], loss_scale=1.0 / len(group))
                    grads.append([p.grad for p in params])
                with tracer.span("runtime.tree_reduce"):
                    reduced = reduce_gradients(grads)
                with tracer.span("nn.optim_step"):
                    optimizer.apply_gradients(reduced)
    ops.record(
        param_digest(model) == result["seq_digest"],
        "replayed training ends on different parameters than Trainer.train",
    )
    result["batches"] = batches
    result["model"] = model


def probe(inp, result, size, tracer: Tracer, ops: Ops, workdir: Path) -> dict:
    """Off-path layer calls: data-parallel training over two workers, one
    shared-memory round trip, one replica clone."""
    steps_ms = [
        1e3 * (s["end"] - s["start"])
        for s in tracer.spans
        if s["name"] == "runtime.train_step"
    ]
    epochs, n = size["epochs"], len(inp["dataset"])
    w2_model, w2_wall, *_ = fit(inp, epochs, 2, Tracer(False), "")
    ops.record(
        param_digest(w2_model) == result["seq_digest"],
        "final parameters differ between train_workers=0 and train_workers=2",
    )

    model, batch = result.pop("model"), result.pop("batches")[0]
    shm_bytes = shm_round_trip(
        [p.data for p in model.parameters()]
        + [batch.target_tr, batch.target_lg, batch.workload.pi_probs],
        tracer, ops,
    )
    with tracer.span("nn.clone_module"):
        clone_module(model)
    return {
        "runtime.train_step_p50_ms": percentile(steps_ms, 50),
        "runtime.train_step_p90_ms": percentile(steps_ms, 90),
        "runtime.shm_bytes": shm_bytes,
        "runtime.ddp_w2_samples_per_s": epochs * n / w2_wall,
    }

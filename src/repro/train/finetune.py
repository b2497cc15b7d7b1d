"""Fine-tuning a pre-trained model on a downstream circuit or task.

Section V-A1: the transition-probability distribution of large practical
designs under real workloads differs sharply from the pre-training
distribution (most modules idle), so the pre-trained model is fine-tuned
per circuit with many workloads (paper: 1,000), after which it generalizes
to *arbitrary* workloads on that circuit.  Section V-B1 fine-tunes the same
backbone on fault-injection error probabilities for reliability.

Both flows reuse :class:`~repro.train.trainer.Trainer`; the functions here
assemble the right fine-tuning dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Netlist
from repro.models.base import RecurrentDagGnn
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload, testbench_workload
from repro.train.dataset import CircuitSample
from repro.train.trainer import TrainConfig, Trainer

__all__ = [
    "FinetuneConfig",
    "finetune_on_workloads",
    "finetune_for_reliability",
    "finetune_grannite",
]


@dataclass(frozen=True)
class FinetuneConfig:
    """Fine-tuning schedule and workload sampling parameters."""

    num_workloads: int = 1000
    epochs: int = 50
    lr: float = 1e-4
    batch_size: int = 1
    seed: int = 0
    sim: SimConfig = field(default_factory=SimConfig)
    #: PI activity of sampled fine-tuning workloads (see
    #: :func:`repro.sim.workload.testbench_workload`).
    workload_activity: float = 0.55
    #: Multiplier applied to reliability targets during fine-tuning.
    #: Per-node error probabilities live at the 1e-4..1e-2 scale where an
    #: L1-trained sigmoid head collapses to zero; scaling the supervision
    #: up (and predictions back down at inference) restores resolution.
    #: Only :func:`finetune_for_reliability` uses this.
    target_scale: float = 100.0
    #: Training-runtime knobs forwarded to :class:`TrainConfig`: LR decay
    #: schedule, gradient-accumulation group size, and an optional
    #: resumable checkpoint (long 1,000-workload fine-tunes restart from
    #: their last completed epoch instead of from scratch).
    schedule: str = "constant"
    grad_accum: int = 1
    checkpoint_path: str | None = None

    def train_config(self) -> TrainConfig:
        """The fine-tuning schedule as a trainer config."""
        return TrainConfig(
            epochs=self.epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            seed=self.seed,
            schedule=self.schedule,
            grad_accum=self.grad_accum,
            checkpoint_path=self.checkpoint_path,
            resume=self.checkpoint_path is not None,
        )


def workload_suite(
    nl: Netlist, count: int, seed: int, activity: float = 0.55
) -> list[Workload]:
    """Sample ``count`` distinct testbench-style workloads for a circuit."""
    return [
        testbench_workload(
            nl, seed=seed + 17 * k, name=f"ft{k}", active_fraction=activity
        )
        for k in range(count)
    ]


def _label_factory(factory):
    """``factory=None`` means a fresh in-process, memory-cached factory."""
    # Deferred: repro.data.factory builds on repro.train.dataset.
    from repro.data.factory import DataFactory

    return factory or DataFactory(workers=0)


def finetune_on_workloads(
    model: RecurrentDagGnn,
    nl: Netlist,
    config: FinetuneConfig | None = None,
    factory=None,
) -> list[CircuitSample]:
    """Fine-tune on one circuit under many workloads (power task).

    Returns the fine-tuning dataset (useful for evaluation/reuse).  The
    model is updated in place.  ``factory`` (a
    :class:`repro.data.DataFactory`) parallelizes and caches the label
    simulations — with 1,000 workloads per design (paper scale) this is
    the dominant fine-tuning setup cost.  ``None`` labels through a fresh
    in-process ``DataFactory(workers=0)``: same labels, no pool, nothing
    kept after the call (all three fine-tunes share this default).
    """
    config = config or FinetuneConfig()
    workloads = workload_suite(
        nl, config.num_workloads, config.seed, config.workload_activity
    )
    dataset = _label_factory(factory).build(
        [nl] * len(workloads), config.sim, workloads=workloads
    )
    trainer = Trainer(config.train_config())
    trainer.train(model, dataset)
    return dataset


def finetune_grannite(
    model,
    nl: Netlist,
    config: FinetuneConfig | None = None,
    factory=None,
) -> list[CircuitSample]:
    """Fine-tune a Grannite model on one circuit under many workloads.

    Mirrors :func:`finetune_on_workloads` for the baseline: per workload,
    source activity (PIs + DFFs) comes from simulation — Grannite's "RTL
    simulation" inputs — and the L1 loss covers only the combinational
    gates it actually predicts.
    """
    from repro.models.grannite import SourceActivity
    from repro.nn.layers import l1_loss_grad
    from repro.nn.optim import Adam

    config = config or FinetuneConfig()
    workloads = workload_suite(
        nl, config.num_workloads, config.seed, config.workload_activity
    )
    # Grannite's source-activity inputs read ``extras["sim"]``, so this is
    # the one fine-tune that keeps full SimResults on its samples.
    dataset = _label_factory(factory).build(
        [nl] * len(workloads), config.sim, workloads=workloads, keep_sim=True
    )
    opt = Adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    order = np.arange(len(dataset))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            sample = dataset[int(i)]
            graph = sample.graph
            sources = SourceActivity.from_sim(graph, sample.extras["sim"])
            comb = np.concatenate([graph.and_ids, graph.not_ids])
            opt.zero_grad()
            log: list = []
            pred = model.forward(graph, sources, log=log)
            _, d_comb = l1_loss_grad(pred[comb], sample.target_tr[comb])
            d_pred = np.zeros_like(pred)
            np.add.at(d_pred, comb, d_comb)
            model.backward(log, d_pred)
            opt.step()
    return dataset


def finetune_for_reliability(
    model: RecurrentDagGnn,
    circuits: list[Netlist],
    config: FinetuneConfig | None = None,
    fault_config: FaultConfig | None = None,
    factory=None,
) -> list[CircuitSample]:
    """Fine-tune the backbone to predict per-node error probabilities.

    The TR head is repurposed for the 2-d [err01, err10] supervision; the
    LG head keeps predicting fault-free logic probability as the auxiliary
    task (the paper keeps the same hyper-parameters and L1 loss).
    """
    config = config or FinetuneConfig()
    dataset = _label_factory(factory).build_reliability(
        circuits, config.sim, fault_config, seed=config.seed
    )
    for sample in dataset:
        sample.target_tr = np.clip(
            sample.target_tr * config.target_scale, 0.0, 1.0
        )
    trainer = Trainer(config.train_config())
    trainer.train(model, dataset)
    return dataset

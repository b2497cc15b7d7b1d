"""Shared plumbing of the experiment drivers."""

from __future__ import annotations

from repro.circuit.benchmarks import training_corpus
from repro.circuit.netlist import Netlist
from repro.data import DataFactory, FactoryConfig
from repro.experiments.config import ExperimentScale
from repro.models.base import ModelConfig, RecurrentDagGnn
from repro.models.registry import make_model
from repro.sim.logicsim import SimConfig
from repro.train.dataset import CircuitSample
from repro.train.trainer import TrainConfig, Trainer

__all__ = [
    "sim_config",
    "model_config",
    "data_factory",
    "training_circuits",
    "training_dataset",
    "pretrain",
]


def sim_config(scale: ExperimentScale) -> SimConfig:
    return SimConfig(
        cycles=scale.sim_cycles,
        streams=scale.sim_streams,
        seed=scale.seed + 1,
    )


def model_config(scale: ExperimentScale, aggregator: str = "dual_attention") -> ModelConfig:
    return ModelConfig(
        hidden=scale.hidden,
        iterations=scale.iterations,
        aggregator=aggregator,
        mlp_hidden=scale.hidden,
        seed=scale.seed,
    )


def data_factory(scale: ExperimentScale) -> DataFactory:
    """The scale's label factory: pooled simulation + content-keyed cache.

    One factory per driver run is enough — its in-memory tier already
    de-duplicates labels within the run, and ``scale.data_cache_dir``
    makes labels persistent across runs.  The memory tier is sized to the
    scale's label volume: a driver's largest sequential scan (the
    pre-training corpus, or one design's fine-tuning workload suite) must
    fit, or an LRU smaller than the scan evicts every entry exactly one
    query before it is re-read and the "second fine-tune is a pure cache
    read" property silently becomes a full re-simulation at paper scale.
    """
    label_volume = max(
        sum(scale.family_counts.values()), 2 * scale.finetune_workloads
    )
    return DataFactory(
        FactoryConfig(
            workers=scale.data_workers,
            cache_dir=scale.data_cache_dir,
            memory_entries=max(512, label_volume),
        )
    )


def training_circuits(scale: ExperimentScale) -> dict[str, list[Netlist]]:
    """Generate the per-family training corpus at this scale."""
    return training_corpus(counts=scale.family_counts, seed=scale.seed)


def training_dataset(
    scale: ExperimentScale, factory: DataFactory | None = None
) -> list[CircuitSample]:
    """Corpus + simulated labels, flattened across families.

    Labels come from the data factory (pooled + cached); samples are lean
    (no pinned ``SimResult`` extras) — bitwise-identical targets to the
    serial :func:`repro.train.dataset.build_dataset` path.
    """
    corpus = training_circuits(scale)
    circuits = [nl for fam in sorted(corpus) for nl in corpus[fam]]
    factory = factory or data_factory(scale)
    return factory.build(circuits, sim_config(scale), seed=scale.seed)


def pretrain(
    name: str,
    aggregator: str,
    scale: ExperimentScale,
    dataset: list[CircuitSample],
    verbose: bool = False,
) -> RecurrentDagGnn:
    """Train one model with the scale's schedule; returns the trained model.

    Runs on the packed training runtime; when ``scale.checkpoint_dir`` is
    set, the run writes a resumable per-model checkpoint there and picks
    it up on re-invocation — interrupted table regenerations continue
    instead of restarting.
    """
    model = make_model(name, model_config(scale, aggregator))
    checkpoint = None
    if scale.checkpoint_dir is not None:
        from pathlib import Path

        from repro.data import CACHE_VERSION

        ckdir = Path(scale.checkpoint_dir)
        ckdir.mkdir(parents=True, exist_ok=True)
        # The label-semantics version is part of the checkpoint identity:
        # a checkpoint trained on one labelling of the corpus must not
        # silently resume against a relabelled one (e.g. the PR-4 seed
        # ownership change), so version bumps orphan old checkpoints the
        # same way they orphan old cache entries.
        checkpoint = str(
            ckdir / f"{name}_{aggregator}_{scale.name}_{CACHE_VERSION}.npz"
        )
    trainer = Trainer(
        TrainConfig(
            epochs=scale.epochs,
            lr=scale.lr,
            batch_size=scale.batch_size,
            seed=scale.seed,
            verbose=verbose,
            schedule=scale.schedule,
            grad_accum=scale.grad_accum,
            train_workers=scale.train_workers,
            checkpoint_path=checkpoint,
            resume=checkpoint is not None,
        )
    )
    trainer.train(model, dataset)
    return model

"""Shared plumbing of the experiment drivers."""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.circuit.benchmarks import training_corpus
from repro.circuit.netlist import Netlist
from repro.data import DataFactory, FactoryConfig
from repro.experiments.config import ExperimentScale
from repro.lru import FingerprintLRU
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


#: The factory :func:`training_dataset` labels through when handed none,
#: by config: its memory tier, sized to a corpus and holding nothing else,
#: answers a repeat call, and its label key decides what is the same corpus.
_CORPUS_FACTORY = FingerprintLRU(1, "corpus label factory")


def training_dataset(
    scale: ExperimentScale, factory: DataFactory | None = None
) -> list[CircuitSample]:
    """Corpus + simulated labels, flattened across families.

    Labels come from the data factory (pooled + cached); samples are lean
    (no pinned ``SimResult`` extras) — bitwise-identical targets to the
    serial :func:`repro.train.dataset.build_dataset` path.  Without a
    ``factory``, every call in a process labels through one shared
    factory, so each corpus is simulated once per process.
    """
    if factory is None:
        fresh = data_factory(scale)
        factory = _CORPUS_FACTORY.get(fresh.config) or _CORPUS_FACTORY.insert(
            fresh.config, fresh
        )
    corpus = training_circuits(scale)
    circuits = [nl for fam in sorted(corpus) for nl in corpus[fam]]
    return factory.build(circuits, sim_config(scale), seed=scale.seed)


def _training_key(
    name: str, config: ModelConfig, train: TrainConfig,
    dataset: list[CircuitSample],
) -> str:
    """SHA-256 over everything that moves a pretrain's parameters.

    The model, its config, the optimization schedule and, per sample in
    order, every input :meth:`Trainer.train` reads: the structure, the PI
    probabilities and the two label arrays.  ``verbose`` and
    ``train_workers`` are normalized away; training at any worker count
    is bitwise-identical.
    """
    h = hashlib.sha256()
    schedule = replace(train, verbose=False, train_workers=0)
    h.update(repr((name, config, schedule)).encode())
    for s in dataset:
        h.update(s.graph.structure.fingerprint().encode())
        for a in (s.workload.pi_probs, s.target_tr, s.target_lg):
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


#: Trained parameters of the distinct pretrains this process ran, as
#: read-only state dicts under :func:`_training_key`.
_PRETRAINED = FingerprintLRU(8, "pretrain memo")


def pretrain(
    name: str,
    aggregator: str,
    scale: ExperimentScale,
    dataset: list[CircuitSample],
    verbose: bool = False,
) -> RecurrentDagGnn:
    """Train one model with the scale's schedule; returns the trained model.

    Each distinct training runs once per process: a model with the same
    name, config and schedule on the same samples (structures, workloads
    and labels, in order) is a fresh model loaded with the parameters the
    first run ended on, bitwise-equal to training it again.  The caller
    owns the returned model and may fine-tune it in place.
    """
    config = model_config(scale, aggregator)
    train = TrainConfig(
        epochs=scale.epochs,
        lr=scale.lr,
        batch_size=scale.batch_size,
        seed=scale.seed,
        verbose=verbose,
        schedule=scale.schedule,
        grad_accum=scale.grad_accum,
        train_workers=scale.train_workers,
    )
    key = _training_key(name, config, train, dataset)
    model = make_model(name, config)
    state = _PRETRAINED.get(key)
    if state is None:
        Trainer(train).train(model, dataset)
        state = model.state_dict()
        for value in state.values():
            value.flags.writeable = False
        _PRETRAINED.insert(key, state)
    else:
        model.load_state_dict(state)
    return model

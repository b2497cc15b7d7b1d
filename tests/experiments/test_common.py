"""Tests for shared experiment plumbing (repro.experiments.common)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.cache import CacheStats
from repro.experiments import common
from repro.experiments.common import (
    data_factory,
    model_config,
    sim_config,
    training_circuits,
    training_dataset,
)
from repro.experiments.config import get_scale

MICRO = get_scale(
    "quick",
    family_counts={"iscas89": 2, "opencores": 2},
    sim_cycles=20,
    hidden=8,
    iterations=2,
)


class TestConfigs:
    def test_sim_config_fields(self):
        cfg = sim_config(MICRO)
        assert cfg.cycles == 20
        assert cfg.streams == MICRO.sim_streams

    def test_model_config_fields(self):
        cfg = model_config(MICRO, "attention")
        assert cfg.hidden == 8
        assert cfg.iterations == 2
        assert cfg.aggregator == "attention"


class TestDataset:
    def test_training_circuits_per_family(self):
        corpus = training_circuits(MICRO)
        assert set(corpus) == {"iscas89", "opencores"}
        assert len(corpus["iscas89"]) == 2

    def test_training_dataset_flattens(self):
        ds = training_dataset(MICRO)
        assert len(ds) == 4
        names = [s.name for s in ds]
        assert any("iscas89" in n for n in names)
        assert any("opencores" in n for n in names)

    def test_dataset_deterministic(self):
        common._CORPUS_FACTORY.clear()
        a = training_dataset(MICRO)
        common._CORPUS_FACTORY.clear()
        b = training_dataset(MICRO)
        assert [s.name for s in a] == [s.name for s in b]
        assert all(
            (x.target_lg == y.target_lg).all() for x, y in zip(a, b)
        )


def corpus_factory_stats(scale) -> CacheStats:
    return common._CORPUS_FACTORY.get(data_factory(scale).config).stats


class TestCorpusFactory:
    """Without a factory, a process labels each pre-training corpus once."""

    def test_second_call_simulates_nothing(self):
        common._CORPUS_FACTORY.clear()
        first = training_dataset(MICRO)
        assert corpus_factory_stats(MICRO).misses == len(first)
        again = training_dataset(MICRO)
        stats = corpus_factory_stats(MICRO)
        assert stats.misses == len(first)
        assert stats.memory_hits == len(first)
        for x, y in zip(first, again):
            assert x.name == y.name
            assert np.array_equal(x.target_tr, y.target_tr)
            assert np.array_equal(x.target_lg, y.target_lg)

    @pytest.mark.parametrize(
        "moved", [{"sim_cycles": 21}, {"seed": 1}, {"family_counts": {"itc99": 2}}]
    )
    def test_what_moves_labels_labels_anew(self, moved):
        training_dataset(MICRO)
        scale = replace(MICRO, **moved)
        before = corpus_factory_stats(scale).misses
        samples = training_dataset(scale)
        assert corpus_factory_stats(scale).misses - before == len(samples) > 0

    def test_a_given_factory_is_asked(self):
        training_dataset(MICRO)
        factory = data_factory(MICRO)
        samples = training_dataset(MICRO, factory=factory)
        assert factory.stats.misses == len(samples) > 0
        training_dataset(MICRO, factory=factory)
        assert factory.stats.misses == len(samples)

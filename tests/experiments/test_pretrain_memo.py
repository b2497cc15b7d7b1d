"""The pretrain memo: one training per distinct (model, schedule, samples).

``experiments.common.pretrain`` keys a trained model by a digest of what
it was trained on.  These tests hold the key to every input that moves
parameters (a split and the full corpus, two seeds), a hit to a fresh
training bit for bit, the memo's entries to copies no caller can reach,
and the paper's tables to one pretrain per distinct model.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    common,
    run_table2,
    run_table3,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.common import pretrain, training_dataset
from tests.experiments.test_tables import MICRO


def _equal(a, b) -> bool:
    """Two models' parameters, bit for bit."""
    a, b = a.state_dict(), b.state_dict()
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.fixture
def cold():
    """An empty memo before and after the test."""
    common._PRETRAINED.clear()
    yield common._PRETRAINED
    common._PRETRAINED.clear()


@pytest.fixture(scope="module")
def dataset():
    return training_dataset(MICRO)


class TestKey:
    def test_split_and_full_dataset_differ(self, cold, dataset):
        split = dataset[max(1, len(dataset) // 4):]
        on_split = pretrain("deepseq", "dual_attention", MICRO, split)
        on_full = pretrain("deepseq", "dual_attention", MICRO, dataset)
        assert not _equal(on_split, on_full)
        assert cold.info().misses == 2

    def test_seeds_differ(self, cold, dataset):
        seed0 = pretrain("deepseq", "dual_attention", MICRO, dataset)
        seed1 = pretrain(
            "deepseq", "dual_attention", replace(MICRO, seed=1), dataset
        )
        assert not _equal(seed0, seed1)
        assert cold.info().misses == 2

    def test_verbose_and_workers_share_a_key(self, cold, dataset, capsys):
        pretrain("dag_recgnn", "attention", MICRO, dataset)
        pretrain(
            "dag_recgnn", "attention", replace(MICRO, train_workers=2),
            dataset, verbose=True,
        )
        assert cold.info().hits == 1
        assert capsys.readouterr().out == ""  # the hit trained nothing


class TestHit:
    def test_hit_is_bitwise_a_fresh_training(self, cold, dataset):
        first = pretrain("dag_convgnn", "conv_sum", MICRO, dataset)
        hit = pretrain("dag_convgnn", "conv_sum", MICRO, dataset)
        assert cold.info().hits == 1
        cold.clear()
        fresh = pretrain("dag_convgnn", "conv_sum", MICRO, dataset)
        assert cold.info().misses == 1
        assert _equal(first, hit) and _equal(hit, fresh)

    def test_in_place_finetune_leaves_the_memo_alone(self, cold, dataset):
        trained = pretrain("deepseq", "attention", MICRO, dataset)  # a miss
        snapshot = trained.state_dict()
        hit = pretrain("deepseq", "attention", MICRO, dataset)
        for model in (trained, hit):
            for p in model.parameters():
                p.data += 1.0
        again = pretrain("deepseq", "attention", MICRO, dataset).state_dict()
        assert all(np.array_equal(again[k], v) for k, v in snapshot.items())

    def test_entries_are_read_only_copies(self, cold, dataset):
        model = pretrain("deepseq", "attention", MICRO, dataset)
        (state,) = cold._entries.values()
        assert not any(v.flags.writeable for v in state.values())
        own = dict(model.named_parameters())
        assert not any(np.shares_memory(own[k].data, v) for k, v in state.items())


@pytest.fixture(scope="module")
def tables():
    """Tables II (all rows), III, V, VI and VII from a cold memo, with
    ``Trainer.train`` counted inside ``pretrain``; then III, V, VI and VII
    again, each against the memo state the first pass did not give it."""
    calls = []

    class Counting(common.Trainer):
        def train(self, *args, **kwargs):
            calls.append(1)
            return super().train(*args, **kwargs)

    common._PRETRAINED.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "Trainer", Counting)
        run_table2(MICRO)
        first = {  # III warm (two rows are II's), V cold, VI and VII warm
            "table3": run_table3(MICRO).text,
            "table5": run_table5(MICRO, designs=("ptc",)).text,
            "table6": run_table6(MICRO, design="ptc").text,
            "table7": run_table7(MICRO, designs=("ptc",)).text,
        }
        pretrains = len(calls)
        runs = {
            "table3": lambda: run_table3(MICRO),
            "table6": lambda: run_table6(MICRO, design="ptc"),
            "table7": lambda: run_table7(MICRO, designs=("ptc",)),
        }
        second = {}
        for name, run in runs.items():
            common._PRETRAINED.clear()
            second[name] = run().text
        second["table5"] = run_table5(MICRO, designs=("ptc",)).text  # warm
    common._PRETRAINED.clear()
    return pretrains, first, second


class TestTables:
    def test_seven_distinct_pretrains(self, tables):
        pretrains, _, _ = tables
        assert pretrains == 7  # 5 (II) + 1 (III) + 1 shared by V-VII

    @pytest.mark.parametrize("table", ["table3", "table5", "table6", "table7"])
    def test_text_same_cold_and_warm(self, tables, table):
        _, first, second = tables
        assert first[table] == second[table]

"""Tests for the training loop and metrics (repro.train)."""

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.train.metrics import EvalMetrics, avg_prediction_error
from repro.train.trainer import TrainConfig, Trainer, evaluate

from tests.conftest import build_dataset_cached, packed_minibatches

CFG = ModelConfig(hidden=12, iterations=2, seed=0)


@pytest.fixture(scope="module")
def dataset():
    # Same build as tests/train/test_checkpoint.py — shared session-wide.
    return build_dataset_cached("iscas89", 4, 6, 40, 1)


class TestMetrics:
    def test_avg_prediction_error_definition(self):
        pred = np.array([0.2, 0.8])
        target = np.array([0.0, 1.0])
        assert avg_prediction_error(pred, target) == pytest.approx(0.2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            avg_prediction_error(np.zeros(3), np.zeros(4))

    def test_2d_supervision_averages_components(self):
        pred = np.array([[0.0, 0.4]])
        target = np.array([[0.2, 0.0]])
        assert avg_prediction_error(pred, target) == pytest.approx(0.3)

    def test_eval_metrics_row(self):
        m = EvalMetrics(pe_tr=0.1, pe_lg=0.2, num_circuits=2, num_nodes=10)
        assert "0.100" in m.row("model")


class TestTrainer:
    def test_loss_decreases(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(TrainConfig(epochs=8, lr=5e-3, batch_size=2)).train(
            model, dataset
        )
        assert len(hist) == 8
        assert hist[-1].loss < hist[0].loss

    def test_loss_components_recorded(self, dataset):
        model = make_model("dag_convgnn", CFG, "conv_sum")
        hist = Trainer(TrainConfig(epochs=2, lr=1e-3)).train(model, dataset)
        for h in hist:
            assert h.loss == pytest.approx(h.loss_tr + h.loss_lg, rel=1e-9)

    def test_empty_dataset_rejected(self):
        model = make_model("deepseq", CFG)
        with pytest.raises(ValueError):
            Trainer().train(model, [])

    def test_batching_merges_circuits(self, dataset):
        batches = packed_minibatches(dataset, 2, np.random.default_rng(0))
        assert len(batches) == 2
        assert sum(b.num_nodes for b in batches) == sum(
            s.num_nodes for s in dataset
        )

    def test_batch_size_one_keeps_samples(self, dataset):
        batches = packed_minibatches(dataset, 1, np.random.default_rng(0))
        assert len(batches) == len(dataset)

    def test_loss_weights(self, dataset):
        model = make_model("dag_convgnn", CFG, "conv_sum")
        hist = Trainer(
            TrainConfig(epochs=1, lr=0.0, tr_weight=2.0, lg_weight=0.5)
        ).train(model, dataset)
        h = hist[0]
        assert h.loss == pytest.approx(2.0 * h.loss_tr + 0.5 * h.loss_lg, rel=1e-9)

    def test_training_improves_eval(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        before = evaluate(model, dataset)
        Trainer(TrainConfig(epochs=10, lr=5e-3, batch_size=2)).train(
            model, dataset
        )
        after = evaluate(model, dataset)
        assert after.pe_lg < before.pe_lg


class TestEvaluate:
    def test_counts(self, dataset):
        model = make_model("deepseq", CFG)
        ev = evaluate(model, dataset)
        assert ev.num_circuits == len(dataset)
        assert ev.num_nodes == sum(s.num_nodes for s in dataset)
        assert 0 <= ev.pe_tr <= 1 and 0 <= ev.pe_lg <= 1

    def test_does_not_leak_predictor_threads(self, dataset):
        # evaluate() builds a BatchedPredictor per call, once per
        # validation epoch; it must start no thread that outlives the call.
        import threading

        model = make_model("deepseq", CFG)
        evaluate(model, dataset)  # warm any lazily-started machinery
        baseline = threading.active_count()
        for _ in range(5):
            evaluate(model, dataset)
        assert threading.active_count() <= baseline

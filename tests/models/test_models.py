"""Tests for the concrete models (deepseq, baselines, registry)."""

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.baselines import DagConvGnn, DagRecGnn
from repro.models.deepseq import DeepSeq
from repro.models.registry import MODEL_NAMES, make_model
from repro.nn.optim import Adam

from tests.conftest import build_labels
from tests.nn.tape import l1_loss, model_forward

CFG = ModelConfig(hidden=12, iterations=3, seed=0)


@pytest.fixture()
def problem():
    return build_labels(
        seed=11, n_pis=5, n_dffs=3, n_gates=25,
        workload_seed=2, cycles=100, sim_seed=2,
    )


class TestRegistry:
    def test_all_table_rows_instantiable(self):
        for name, agg in MODEL_NAMES:
            model = make_model(name, CFG, agg)
            assert model.config.aggregator == agg

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_model("transformer", CFG)

    def test_classes(self):
        assert isinstance(make_model("deepseq", CFG), DeepSeq)
        assert isinstance(make_model("dag_convgnn", CFG), DagConvGnn)
        assert isinstance(make_model("dag_recgnn", CFG), DagRecGnn)


class TestArchitectureContracts:
    def test_convgnn_single_iteration(self):
        model = DagConvGnn(ModelConfig(hidden=8, iterations=7))
        assert model.config.iterations == 1, "ConvGNN is non-recursive"

    def test_recgnn_keeps_iterations(self):
        model = DagRecGnn(ModelConfig(hidden=8, iterations=7))
        assert model.config.iterations == 7

    def test_deepseq_uses_custom_batches(self):
        model = DeepSeq(CFG)
        assert model.use_custom_batches
        assert model.dff_copy_step

    def test_baselines_use_simple_propagation(self):
        for cls in (DagConvGnn, DagRecGnn):
            model = cls(CFG)
            assert not model.use_custom_batches
            assert not model.dff_copy_step

    def test_default_aggregators(self):
        assert DeepSeq().config.aggregator == "dual_attention"
        assert DagConvGnn().config.aggregator == "conv_sum"
        assert DagRecGnn().config.aggregator == "attention"

    def test_recursion_changes_output(self, problem):
        graph, wl, _ = problem
        shallow = DeepSeq(ModelConfig(hidden=12, iterations=1, seed=0))
        deep = DeepSeq(ModelConfig(hidden=12, iterations=6, seed=0))
        a = shallow.predict(graph, wl)
        b = deep.predict(graph, wl)
        assert not np.allclose(a.lg, b.lg)


class TestLearning:
    @pytest.mark.parametrize("name,agg", [("deepseq", "dual_attention"),
                                          ("dag_recgnn", "attention")])
    def test_overfits_single_circuit(self, problem, name, agg):
        graph, wl, labels = problem
        model = make_model(name, CFG, agg)
        opt = Adam(model.parameters(), lr=5e-3)
        first = last = None
        for step in range(30):
            opt.zero_grad()
            pred_tr, pred_lg = model_forward(model, graph, wl)
            loss = l1_loss(pred_tr, labels.transition_prob) + l1_loss(
                pred_lg, labels.logic_prob[:, None]
            )
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
            last = loss.item()
        assert last < first * 0.7, (name, first, last)

    def test_eq5_previous_state_term_cancels(self, problem):
        """Eq. (5)'s ``w1ᵀh_v`` is one constant per destination's softmax
        segment, so it cancels: overwriting ``w1`` in both aggregators
        moves no prediction beyond rounding, and ``w1`` receives no
        gradient beyond rounding."""
        graph, wl, labels = problem
        model = DeepSeq(CFG)
        aggs = (model.forward_agg, model.reverse_agg)
        pred_tr, pred_lg = model_forward(model, graph, wl)
        loss = l1_loss(pred_tr, labels.transition_prob) + l1_loss(
            pred_lg, labels.logic_prob[:, None]
        )
        loss.backward()
        for agg in aggs:
            w1_grad = np.abs(agg.w1.weight.grad).max()
            assert w1_grad <= 1e-12 * np.abs(agg.w2.weight.grad).max()
        before = model.predict(graph, wl)
        rng = np.random.default_rng(3)
        for agg in aggs:
            w1 = agg.w1.weight.data
            w1[...] = 10 * rng.standard_normal(w1.shape)
        after = model.predict(graph, wl)
        assert np.abs(after.tr - before.tr).max() <= 1e-12
        assert np.abs(after.lg - before.lg).max() <= 1e-12

    def test_state_dict_roundtrip_preserves_predictions(self, problem):
        graph, wl, _ = problem
        a = DeepSeq(CFG)
        b = DeepSeq(ModelConfig(hidden=12, iterations=3, seed=42))
        b.load_state_dict(a.state_dict())
        assert np.allclose(
            a.predict(graph, wl).tr, b.predict(graph, wl).tr
        )

"""Tests for the Grannite baseline (repro.models.grannite)."""

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.grannite import Grannite, SourceActivity
from repro.nn.optim import Adam

from tests.conftest import build_labels
from tests.nn.tape import grannite_forward, l1_loss

CFG = ModelConfig(hidden=12, aggregator="attention", seed=0)


@pytest.fixture()
def problem():
    graph, _, sim = build_labels(
        seed=19, n_pis=4, n_dffs=4, n_gates=25,
        workload_seed=3, cycles=80, sim_seed=3,
    )
    sources = SourceActivity.from_sim(graph, sim)
    return graph, sim, sources


class TestSourceActivity:
    def test_source_ids_are_pis_then_dffs(self, problem):
        graph, sim, sources = problem
        expected = np.concatenate([graph.pi_ids, graph.dff_ids])
        assert (sources.source_ids == expected).all()

    def test_values_match_simulation(self, problem):
        graph, sim, sources = problem
        assert (sources.logic_prob == sim.logic_prob[sources.source_ids]).all()
        assert (sources.tr01 == sim.tr01_prob[sources.source_ids]).all()

    def test_stacked_shape(self, problem):
        _, _, sources = problem
        assert sources.stacked().shape == (sources.source_ids.size, 3)


class TestGrannite:
    def test_node_features_include_tt_prob(self, problem):
        graph, _, _ = problem
        model = Grannite(CFG)
        feats = model.node_features(graph)
        assert feats.shape == (graph.num_nodes, 5)
        # AND gates carry output-1 probability 0.25; NOT gates 0.5.
        for a in graph.and_ids:
            assert feats[a, 4] == pytest.approx(0.25)
        for n in graph.not_ids:
            assert feats[n, 4] == pytest.approx(0.5)

    def test_forward_shape(self, problem):
        graph, _, sources = problem
        model = Grannite(CFG)
        out = model(graph, sources)
        assert out.shape == (graph.num_nodes, 2)

    def test_predict_full_overrides_sources(self, problem):
        """Per the Grannite flow, PI/FF activity comes from simulation, not
        the model (paper Section V-A2)."""
        graph, sim, sources = problem
        model = Grannite(CFG)
        pred = model.predict_full(graph, sources)
        assert np.allclose(pred.tr[sources.source_ids, 0], sources.tr01)
        assert np.allclose(pred.tr[sources.source_ids, 1], sources.tr10)
        assert np.allclose(pred.lg[sources.source_ids], sources.logic_prob)

    def test_learns_on_comb_targets(self, problem):
        graph, sim, sources = problem
        model = Grannite(CFG)
        comb = np.concatenate([graph.and_ids, graph.not_ids])
        target = sim.transition_prob[comb]
        opt = Adam(model.parameters(), lr=5e-3)
        losses = []
        for _ in range(25):
            opt.zero_grad()
            pred = grannite_forward(model, graph, sources)
            loss = l1_loss(pred.gather_rows(comb), target)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.8

    def test_deterministic(self, problem):
        graph, _, sources = problem
        model = Grannite(CFG)
        a = model.predict_full(graph, sources)
        b = model.predict_full(graph, sources)
        assert (a.tr == b.tr).all()

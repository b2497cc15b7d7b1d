"""The one-buffer sweep (``repro.models.base.propagate`` and
``propagate_backward``) against the composed sweep it replaced.

:func:`composed_embed` and :func:`composed_grannite` are the oracle: the
propagation written from individual autograd operators — ``gather_rows``
from the current and the pass-start state, aggregator, feature concat,
GRU, and a functional ``row_update`` that copies the whole state per
level.  Nothing in ``src/`` runs it.  The sweep, wrapped as one tape node
(:func:`tests.nn.tape.sweep`), must reproduce its forward values bitwise
with and without a context log and its parameter gradients to rounding
error (the shared state-gradient buffer adds each row's contributions in
a different order).
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.grannite import Grannite, SourceActivity
from repro.models.registry import make_model
from repro.runtime.plan import plan_for

from tests.conftest import (
    build_labels,
    build_pair,
    dff_chain_pair,
    perturb_parameters,
    single_node_pair,
)
from tests.nn.tape import (
    Tensor,
    apply_kernel,
    embed,
    grannite_forward,
    grannite_initial_hidden,
    l1_loss,
    mlp,
    no_grad,
)

CFG = ModelConfig(hidden=10, iterations=3, seed=0)

FAMILIES = [
    ("deepseq", "dual_attention"),
    ("dag_recgnn", "attention"),
    ("dag_convgnn", "conv_sum"),
]

PAIRS = {
    "plain": lambda: build_pair(1, 4, 3, 30),
    "dff_heavy": lambda: build_pair(7, 4, 12, 14),
    "dff_chain": dff_chain_pair,
    "single_node": single_node_pair,
}


def composed_pass(h, feature_rows, batches, agg, gru):
    h_start = h
    for batch, x_rows in zip(batches, feature_rows):
        if batch.num_nodes == 0 or batch.num_edges == 0:
            continue
        m = apply_kernel(
            agg, (h.gather_rows(batch.src), h_start.gather_rows(batch.nodes)), batch
        )
        gru_in = Tensor.concat([m, Tensor(x_rows)], axis=1)
        h = h.row_update(
            batch.nodes, apply_kernel(gru, (gru_in, h_start.gather_rows(batch.nodes)))
        )
    return h


def composed_embed(model, graph, h):
    """``RecurrentDagGnn.embed`` from initial state ``h`` as a chain of
    composed operators."""
    plan = plan_for(graph)
    custom = model.use_custom_batches
    fwd_batches, rev_batches = plan.schedule(custom=custom)
    fwd_rows, rev_rows = plan.feature_rows(custom, h.data.dtype)
    for _ in range(model.config.iterations):
        h = composed_pass(h, fwd_rows, fwd_batches, model.forward_agg, model.forward_gru)
        h = composed_pass(h, rev_rows, rev_batches, model.reverse_agg, model.reverse_gru)
        if model.dff_copy_step and graph.dff_ids.size:
            h = h.row_update(graph.dff_ids, h.gather_rows(graph.dff_src))
    return h


def composed_grannite(model, graph, sources):
    """``Grannite.forward`` as a chain of composed operators."""
    features = model.node_features(graph)
    batches = graph.forward_batches
    h = composed_pass(
        grannite_initial_hidden(model, graph, sources),
        [features[b.nodes] for b in batches],
        batches,
        model.agg,
        model.gru,
    )
    return mlp(model.head_tr, h)


def loss_of(model, h, graph):
    rng = np.random.default_rng(graph.num_nodes)
    return l1_loss(
        mlp(model.head_tr, h), rng.uniform(size=(graph.num_nodes, 2))
    ) + l1_loss(mlp(model.head_lg, h), rng.uniform(size=(graph.num_nodes, 1)))


def param_grads(model, loss):
    model.zero_grad()
    loss.backward()
    return [p.grad.copy() for p in model.parameters()]


def assert_grads_close(got, want):
    for g1, g2 in zip(got, want):
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)


class TestSweepMatchesComposed:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("name,agg", FAMILIES)
    @pytest.mark.parametrize("grad", [True, False])
    def test_forward_bitwise(self, name, agg, pair, grad):
        model = perturb_parameters(make_model(name, CFG, agg))
        graph, wl = PAIRS[pair]()
        with nullcontext() if grad else no_grad():
            got = embed(model, graph, wl)
            want = composed_embed(model, graph, Tensor(model.initial_hidden(graph, wl)))
        assert got.requires_grad == grad
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("pair", ["plain", "dff_heavy", "dff_chain"])
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_parameter_gradients_close(self, name, agg, pair):
        model = perturb_parameters(make_model(name, CFG, agg))
        graph, wl = PAIRS[pair]()
        h0 = Tensor(model.initial_hidden(graph, wl))
        got = param_grads(model, loss_of(model, embed(model, graph, wl), graph))
        want = param_grads(model, loss_of(model, composed_embed(model, graph, h0), graph))
        assert_grads_close(got, want)

    def test_state_gradient_reaches_h0(self):
        """A differentiable h0 is copied, not overwritten, and receives the
        final state gradient — what the oracle computes through its
        per-level ``row_update`` chain."""
        model = perturb_parameters(make_model("deepseq", CFG, "dual_attention"))
        graph, wl = PAIRS["dff_heavy"]()
        h0_data = model.initial_hidden(graph, wl)
        weights = Tensor(np.random.default_rng(3).normal(size=h0_data.shape))
        h0 = Tensor(h0_data.copy(), requires_grad=True)
        (embed(model, graph, h0=h0) * weights).sum().backward()
        assert np.array_equal(h0.data, h0_data)
        ref = Tensor(h0_data.copy(), requires_grad=True)
        (composed_embed(model, graph, ref) * weights).sum().backward()
        assert np.abs(h0.grad).max() > 0
        np.testing.assert_allclose(h0.grad, ref.grad, rtol=1e-12, atol=1e-15)


class TestGranniteMatchesComposed:
    @pytest.fixture()
    def problem(self):
        graph, _, sim = build_labels(
            seed=19, n_pis=4, n_dffs=4, n_gates=25,
            workload_seed=3, cycles=80, sim_seed=3,
        )
        return graph, SourceActivity.from_sim(graph, sim)

    @pytest.mark.parametrize("grad", [True, False])
    def test_forward_bitwise(self, problem, grad):
        graph, sources = problem
        model = perturb_parameters(Grannite(ModelConfig(hidden=10, aggregator="attention")))
        with nullcontext() if grad else no_grad():
            got = grannite_forward(model, graph, sources)
            want = composed_grannite(model, graph, sources)
        assert got.requires_grad == grad
        assert np.array_equal(got.data, want.data)

    def test_parameter_gradients_close(self, problem):
        graph, sources = problem
        model = perturb_parameters(Grannite(ModelConfig(hidden=10, aggregator="attention")))
        target = np.random.default_rng(5).uniform(size=(graph.num_nodes, 2))
        got = param_grads(model, l1_loss(grannite_forward(model, graph, sources), target))
        want = param_grads(model, l1_loss(composed_grannite(model, graph, sources), target))
        # source_proj is reached only through the differentiable h0.
        assert np.abs(got[0]).max() > 0
        assert_grads_close(got, want)


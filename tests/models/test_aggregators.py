"""Tests for aggregation functions (repro.models.aggregators).

Aggregators take rows, not the whole state: ``h_src`` holds the current
states of the batch's edge sources and ``h_prev`` the previous states of
its nodes.  The tests keep whole ``(12, d)`` states and gather with
:func:`rows` the way the sweep does; :func:`call` runs an aggregator's
kernel pair as one tape node (:func:`tests.nn.tape.apply_kernel`).
"""

import numpy as np
import pytest

from repro.circuit.graph import EdgeBatch
from repro.models.aggregators import (
    AttentionAggregator,
    ConvSumAggregator,
    DualAttentionAggregator,
    make_aggregator,
)

from tests.nn.tape import Tensor, apply_kernel

HID = 8


@pytest.fixture()
def batch():
    # Two target nodes: node 10 with preds {0, 1}, node 11 with pred {2}.
    return EdgeBatch(
        nodes=np.array([10, 11]),
        src=np.array([0, 1, 2]),
        dst_local=np.array([0, 0, 1]),
    )


@pytest.fixture()
def states():
    rng = np.random.default_rng(0)
    h_cur = Tensor(rng.standard_normal((12, HID)))
    h_prev = Tensor(rng.standard_normal((12, HID)))
    return h_cur, h_prev


def rows(h_cur, h_prev, batch):
    """The aggregator's inputs: ``(h_cur[src], h_prev[nodes])``."""
    return (
        Tensor(h_cur.numpy()[batch.src], requires_grad=h_cur.requires_grad),
        Tensor(h_prev.numpy()[batch.nodes], requires_grad=h_prev.requires_grad),
    )


def call(agg, h_src, h_prev, batch):
    return apply_kernel(agg, (h_src, h_prev), batch)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls,mult",
        [
            ("conv_sum", ConvSumAggregator, 1),
            ("attention", AttentionAggregator, 1),
            ("dual_attention", DualAttentionAggregator, 2),
        ],
    )
    def test_make(self, kind, cls, mult):
        agg = make_aggregator(kind, HID)
        assert isinstance(agg, cls)
        assert agg.out_features == HID * mult

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator("mean_pool", HID)

    @pytest.mark.parametrize("kind", ["conv_sum", "attention", "dual_attention"])
    def test_unsorted_batch_rejected(self, kind, states):
        """No fallback for unsorted destinations: ``GraphPlan.schedule``
        refuses such schedules, and a hand-built one fails here."""
        unsorted = EdgeBatch(
            nodes=np.array([10, 11]),
            src=np.array([2, 0, 1]),
            dst_local=np.array([1, 0, 0]),
        )
        agg = make_aggregator(kind, HID)
        with pytest.raises(ValueError, match="unsorted"):
            call(agg, *rows(*states, unsorted), unsorted)


class TestConvSum:
    def test_output_shape(self, batch, states):
        agg = ConvSumAggregator(HID)
        out = call(agg, *rows(*states, batch), batch)
        assert out.shape == (2, HID)

    def test_is_sum_of_projections(self, batch, states):
        agg = ConvSumAggregator(HID, seed=3)
        h_cur, h_prev = states
        out = call(agg, *rows(h_cur, h_prev, batch), batch).numpy()
        proj = h_cur.numpy() @ agg.proj.weight.data.T + agg.proj.bias.data
        assert np.allclose(out[0], proj[0] + proj[1])
        assert np.allclose(out[1], proj[2])

    def test_ignores_prev_state(self, batch, states):
        agg = ConvSumAggregator(HID, seed=3)
        h_cur, h_prev = states
        a = call(agg, *rows(h_cur, h_prev, batch), batch).numpy()
        b = call(agg, *rows(h_cur, Tensor(np.zeros((12, HID))), batch), batch).numpy()
        assert np.allclose(a, b)


class TestAttention:
    def test_output_shape(self, batch, states):
        agg = AttentionAggregator(HID)
        assert call(agg, *rows(*states, batch), batch).shape == (2, HID)

    def test_single_pred_weight_is_identity(self, batch, states):
        """A node with one predecessor gets exactly that embedding
        (softmax over one element = 1)."""
        agg = AttentionAggregator(HID, seed=1)
        h_cur, h_prev = states
        out = call(agg, *rows(h_cur, h_prev, batch), batch).numpy()
        assert np.allclose(out[1], h_cur.numpy()[2])

    def test_message_is_convex_combination(self, batch, states):
        agg = AttentionAggregator(HID, seed=2)
        h_cur, h_prev = states
        out = call(agg, *rows(h_cur, h_prev, batch), batch).numpy()
        h0, h1 = h_cur.numpy()[0], h_cur.numpy()[1]
        # out[0] = a*h0 + (1-a)*h1 for some a in (0,1): solve per dim, all equal.
        denom = h0 - h1
        mask = np.abs(denom) > 1e-9
        alphas = (out[0] - h1)[mask] / denom[mask]
        assert np.allclose(alphas, alphas[0], atol=1e-9)
        assert 0.0 < alphas[0] < 1.0

    def test_depends_on_prev_state(self, batch, states):
        agg = AttentionAggregator(HID, seed=2)
        h_cur, h_prev = states
        a = call(agg, *rows(h_cur, h_prev, batch), batch).numpy()
        b = call(agg, *rows(h_cur, Tensor(h_prev.numpy() + 1.0), batch), batch).numpy()
        # dst score shifts cancel in softmax only if shift is uniform per
        # segment - a constant shift IS uniform, so craft a non-uniform one.
        shifted = h_prev.numpy().copy()
        shifted[10] += np.linspace(0, 3, HID)
        c = call(agg, *rows(h_cur, Tensor(shifted), batch), batch).numpy()
        assert not np.allclose(a[0], c[0]) or np.allclose(a, b)


class TestDualAttention:
    def test_output_width_doubles(self, batch, states):
        agg = DualAttentionAggregator(HID)
        assert call(agg, *rows(*states, batch), batch).shape == (2, 2 * HID)

    def test_concat_order_tr_then_lg(self, batch, states):
        """m = m_TR || m_LG with m_TR = gate * m_LG (Eqs. 6-7)."""
        agg = DualAttentionAggregator(HID, seed=4)
        out = call(agg, *rows(*states, batch), batch).numpy()
        m_tr, m_lg = out[:, :HID], out[:, HID:]
        # gate in (0,1): each m_TR component has |m_TR| <= |m_LG| and the
        # ratio is constant across dimensions for a given node.
        for row in range(2):
            mask = np.abs(m_lg[row]) > 1e-9
            ratios = m_tr[row][mask] / m_lg[row][mask]
            assert np.allclose(ratios, ratios[0], atol=1e-9)
            assert 0.0 < ratios[0] < 1.0

    def test_gradients_reach_all_params(self, batch, states):
        agg = DualAttentionAggregator(HID, seed=5)
        out = call(agg, *rows(*states, batch), batch).sum()
        out.backward()
        for name, p in agg.named_parameters():
            assert p.grad is not None, name

    def test_eq5_part_matches_simple_attention(self, batch, states):
        """The m_LG half equals the plain attention message when weights
        are copied."""
        dual = DualAttentionAggregator(HID, seed=6)
        single = AttentionAggregator(HID, seed=99)
        single.w1.weight.data[...] = dual.w1.weight.data
        single.w2.weight.data[...] = dual.w2.weight.data
        h_cur, h_prev = states
        m_lg = call(dual, *rows(h_cur, h_prev, batch), batch).numpy()[:, HID:]
        m_single = call(single, *rows(h_cur, h_prev, batch), batch).numpy()
        assert np.allclose(m_lg, m_single)

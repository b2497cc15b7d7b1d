"""Aggregation functions: conv-sum, additive attention, and dual attention.

These instantiate the ``Aggregate`` of Eq. (4).  All three share one calling
convention over *rows*, never the whole ``(N, d)`` state: given
``h_src`` — the ``(E, d)`` current states of the batch's edge sources
(already updated for lower levels of this pass) — ``h_prev`` — the
``(m, d)`` pass-start states of the batch's own nodes (the paper's
``h^{t-1}_v``) — and the :class:`~repro.circuit.graph.EdgeBatch`, they
return one aggregated message row per batch node.  The sweep
(:func:`repro.models.base.propagate`) gathers the rows, calls the
aggregator's array kernels and scatters their gradients back into its one
state buffer.

* :class:`ConvSumAggregator` — GCN-style linear + sum over predecessors
  ([12] in the paper); message width = hidden.
* :class:`AttentionAggregator` — the additive attention of Eq. (5)
  ([14], [16]); message width = hidden.
* :class:`DualAttentionAggregator` — the paper's contribution: Eq. (5)
  produces the logic message ``m_LG``; Eq. (6) gates it against the node's
  previous state producing the transition message ``m_TR``; the final
  message is their concatenation (Eq. (7)), width = 2 x hidden.

Note on Eq. (6): the paper writes a softmax over a *single* logit, which is
identically 1; following the additive-attention reading we implement the
gate as a sigmoid of the same score — the standard single-query attention
degeneration.  This is a deliberate deviation from the equation as
printed.

Note on Eq. (5): its ``w1ᵀh_v`` term is one constant per destination's
softmax segment, so it cancels — ``w1`` moves no prediction and receives
no gradient beyond rounding (``tests/models/test_models.py`` pins both).
The parameter stays, so checkpoints and forward bits are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.graph import EdgeBatch
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import rowstable_matmul

__all__ = [
    "Aggregator",
    "ConvSumAggregator",
    "AttentionAggregator",
    "DualAttentionAggregator",
    "make_aggregator",
]


class Aggregator(Module):
    """Interface: aggregators map (h_src, h_prev, batch) -> messages.

    Each aggregator is a kernel pair on raw arrays, which the sweep calls
    directly: ``kernel_forward(h_src, h_prev, batch) -> (msg, ctx)`` and
    ``kernel_backward(ctx, g, acc) -> (d_src, d_prev)``, adding parameter
    gradients into ``acc`` (one array per :meth:`parameters` entry);
    ``d_prev`` is ``None`` when the message ignores the previous state.
    Calling the module returns the message alone.  Every step is
    per-row or per-segment (einsum scores, ``reduceat`` reductions over
    the batch's sorted segment layout), so packed multi-circuit sweeps
    reproduce sequential results bitwise.
    """

    #: width of the produced message, as a multiple of the hidden size.
    out_multiplier: int = 1

    def __init__(self, hidden: int) -> None:
        super().__init__()
        self.hidden = hidden

    @property
    def out_features(self) -> int:
        return self.hidden * self.out_multiplier


def _layout(batch: EdgeBatch) -> tuple[np.ndarray, np.ndarray]:
    layout = batch.dst_layout()
    if layout is None:
        raise ValueError(
            "edge batch destinations are unsorted; aggregator kernels need "
            "sorted dst_local (GraphPlan.schedule checks every schedule)"
        )
    return layout


def _segment_reduce(
    op: np.ufunc,
    values: np.ndarray,
    layout: tuple[np.ndarray, np.ndarray],
    num_segments: int,
    empty: float = 0.0,
) -> np.ndarray:
    """``op`` over each destination's contiguous run of rows; ``empty``
    for a destination without messages."""
    nonempty, starts = layout
    if nonempty.size == num_segments:  # every scheduled node has a message
        return op.reduceat(values, starts, axis=0)
    out = np.full((num_segments,) + values.shape[1:], empty, dtype=values.dtype)
    out[nonempty] = op.reduceat(values, starts, axis=0)
    return out


def _attend(
    hs: np.ndarray, hp: np.ndarray, w1: np.ndarray, w2: np.ndarray, batch: EdgeBatch
) -> tuple[np.ndarray, tuple]:
    """Eq. (5) on rows: the message ``sum_u alpha_uv h_u`` with additive
    attention scores softmaxed within each destination segment, and the
    ``ctx`` :func:`_attend_backward` needs (scores -> exp -> alpha share
    one buffer)."""
    layout = _layout(batch)
    dst, m = batch.dst_local, batch.num_nodes
    scores = np.einsum("ij,jc->ic", hs, w2.T)[:, 0]
    scores += np.einsum("ij,jc->ic", hp, w1.T)[dst, 0]
    seg_max = _segment_reduce(np.maximum, scores, layout, m, -np.inf)
    seg_max[~np.isfinite(seg_max)] = 0.0
    scores -= seg_max[dst]
    alpha = np.exp(scores, out=scores)
    alpha /= _segment_reduce(np.add, alpha, layout, m)[dst]  # (E,)
    msg = _segment_reduce(np.add, hs * alpha[:, None], layout, m)
    return msg, (batch, layout, hs, hp, alpha)


def _attend_backward(
    ctx: tuple,
    w1: np.ndarray,
    w2: np.ndarray,
    d_msg: np.ndarray,
    d_w1: np.ndarray,
    d_w2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`_attend` for message gradient ``d_msg``: adds
    into ``d_w1``/``d_w2`` and returns ``(d_src, d_prev)``."""
    batch, layout, hs, hp, alpha = ctx
    dst, m = batch.dst_local, batch.num_nodes
    d_scaled = d_msg[dst]  # (E, d)
    d_src = d_scaled * alpha[:, None]
    d_alpha = np.einsum("ij,ij->i", d_scaled, hs)  # (E,)
    # softmax backward (the seg_max shift is constant w.r.t. grads)
    seg_dot = _segment_reduce(np.add, alpha * d_alpha, layout, m)
    d_scores = alpha * (d_alpha - seg_dot[dst])  # (E,)
    # scores = w1(h_prev)[dst] + w2(h_src)
    d_w1out = _segment_reduce(np.add, d_scores, layout, m)
    d_src += d_scores[:, None] * w2
    d_w1 += d_w1out[None, :] @ hp
    d_w2 += d_scores[None, :] @ hs
    return d_src, d_w1out[:, None] @ w1


class ConvSumAggregator(Aggregator):
    """m_v = sum over predecessors of W h_u  (convolutional sum)."""

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        self.proj = Linear(hidden, hidden, seed=seed)

    def kernel_forward(
        self, h_src: np.ndarray, h_prev: np.ndarray, batch: EdgeBatch
    ) -> tuple[np.ndarray, tuple]:
        layout = _layout(batch)
        proj = rowstable_matmul(h_src, np.ascontiguousarray(self.proj.weight.data.T))
        proj += self.proj.bias.data
        return _segment_reduce(np.add, proj, layout, batch.num_nodes), (batch, h_src)

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> tuple[np.ndarray, None]:
        batch, h_src = ctx
        d_proj = g[batch.dst_local]  # (E, d)
        d_weight, d_bias = acc
        d_weight += d_proj.T @ h_src
        d_bias += d_proj.sum(axis=0)
        return d_proj @ self.proj.weight.data, None


class AttentionAggregator(Aggregator):
    """Additive attention over predecessors (Eq. 5).

    score(u -> v) = w1^T h_v^{t-1} + w2^T h_u^t, softmax within each v.
    """

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        self.w1 = Linear(hidden, 1, bias=False, seed=seed)
        self.w2 = Linear(hidden, 1, bias=False, seed=seed + 1)

    def kernel_forward(
        self, h_src: np.ndarray, h_prev: np.ndarray, batch: EdgeBatch
    ) -> tuple[np.ndarray, tuple]:
        return _attend(h_src, h_prev, self.w1.weight.data, self.w2.weight.data, batch)

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        return _attend_backward(
            ctx, self.w1.weight.data, self.w2.weight.data, g, *acc
        )


class DualAttentionAggregator(Aggregator):
    """The paper's dual attention (Eqs. 5-7): m_v = m_TR || m_LG."""

    out_multiplier = 2

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        # Eq. (5) parameters (logic attention).
        self.w1 = Linear(hidden, 1, bias=False, seed=seed)
        self.w2 = Linear(hidden, 1, bias=False, seed=seed + 1)
        # Eq. (6) parameters (transition gate); the paper reuses the symbols
        # w1/w2 but the operands differ (h^{t-1}_v vs m_LG), so independent
        # weights are the faithful reading.
        self.w3 = Linear(hidden, 1, bias=False, seed=seed + 2)
        self.w4 = Linear(hidden, 1, bias=False, seed=seed + 3)

    def kernel_forward(
        self, h_src: np.ndarray, h_prev: np.ndarray, batch: EdgeBatch
    ) -> tuple[np.ndarray, tuple]:
        """Fused Eqs. (5)-(7); replays the arithmetic of the same equations
        composed from autograd operators (values bitwise equal; the tests
        hold that composition as the oracle)."""
        # Eq. (5): the logic message.
        m_lg, attn = _attend(
            h_src, h_prev, self.w1.weight.data, self.w2.weight.data, batch
        )
        # Eq. (6): sigmoid gate of the previous state against m_LG.
        gate = np.einsum("ij,jc->ic", h_prev, self.w3.weight.data.T)
        gate += np.einsum("ij,jc->ic", m_lg, self.w4.weight.data.T)
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.reciprocal(gate, out=gate)  # (m, 1)
        # Eq. (7): m_TR || m_LG.
        return np.concatenate([m_lg * gate, m_lg], axis=1), (attn, m_lg, gate)

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        attn, m_lg, gate = ctx
        h_prev = attn[3]
        w3, w4 = self.w3.weight.data, self.w4.weight.data
        d_w1, d_w2, d_w3, d_w4 = acc
        d = m_lg.shape[1]
        g_tr = g[:, :d]
        d_gate = np.einsum("ij,ij->i", g_tr, m_lg)[:, None]  # (m, 1)
        d_s = d_gate * gate * (1.0 - gate)  # through the sigmoid
        d_w3 += d_s.T @ h_prev
        d_w4 += d_s.T @ m_lg
        d_mlg = g[:, d:] + g_tr * gate + d_s @ w4
        d_src, d_prev = _attend_backward(
            attn, self.w1.weight.data, self.w2.weight.data, d_mlg, d_w1, d_w2
        )
        d_prev += d_s @ w3
        return d_src, d_prev


_AGGREGATORS = {
    "conv_sum": ConvSumAggregator,
    "attention": AttentionAggregator,
    "dual_attention": DualAttentionAggregator,
}


def make_aggregator(kind: str, hidden: int, seed: int = 0) -> Aggregator:
    """Factory: ``conv_sum`` | ``attention`` | ``dual_attention``."""
    try:
        cls = _AGGREGATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown aggregator {kind!r}; choose from {sorted(_AGGREGATORS)}"
        ) from None
    return cls(hidden, seed=seed)

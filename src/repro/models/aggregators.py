"""Aggregation functions: conv-sum, additive attention, and dual attention.

These instantiate the ``Aggregate`` of Eq. (4).  All three share one calling
convention over *rows*, never the whole ``(N, d)`` state: given
``h_src`` — the ``(E, d)`` current states of the batch's edge sources
(already updated for lower levels of this pass) — ``h_prev`` — the
``(m, d)`` pass-start states of the batch's own nodes (the paper's
``h^{t-1}_v``) — and the :class:`~repro.circuit.graph.EdgeBatch`, they
return one aggregated message row per batch node.  The sweep
(:func:`repro.models.base.propagate`) gathers the rows and scatters their
gradients back into its one state buffer.

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
"""

from __future__ import annotations

import numpy as np

from repro.circuit.graph import EdgeBatch
from repro.nn.functional import segment_softmax
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = [
    "Aggregator",
    "ConvSumAggregator",
    "AttentionAggregator",
    "DualAttentionAggregator",
    "make_aggregator",
]


class Aggregator(Module):
    """Interface: aggregators map (h_src, h_prev, batch) -> messages."""

    #: width of the produced message, as a multiple of the hidden size.
    out_multiplier: int = 1

    def __init__(self, hidden: int) -> None:
        super().__init__()
        self.hidden = hidden

    @property
    def out_features(self) -> int:
        return self.hidden * self.out_multiplier

    def forward(self, h_src: Tensor, h_prev: Tensor, batch: EdgeBatch) -> Tensor:
        raise NotImplementedError


class ConvSumAggregator(Aggregator):
    """m_v = sum over predecessors of W h_u  (convolutional sum)."""

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        self.proj = Linear(hidden, hidden, seed=seed)

    def forward(self, h_src: Tensor, h_prev: Tensor, batch: EdgeBatch) -> Tensor:
        return self.proj(h_src).segment_sum(
            batch.dst_local, batch.num_nodes, layout=batch.dst_layout()
        )


class AttentionAggregator(Aggregator):
    """Additive attention over predecessors (Eq. 5).

    score(u -> v) = w1^T h_v^{t-1} + w2^T h_u^t, softmax within each v.
    """

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        self.w1 = Linear(hidden, 1, bias=False, seed=seed)
        self.w2 = Linear(hidden, 1, bias=False, seed=seed + 1)

    def forward(self, h_src: Tensor, h_prev: Tensor, batch: EdgeBatch) -> Tensor:
        layout = batch.dst_layout()
        dst_scores = self.w1(h_prev)  # (m, 1)
        scores = dst_scores.gather_rows(batch.dst_local) + self.w2(h_src)
        alpha = segment_softmax(
            scores, batch.dst_local, batch.num_nodes, layout=layout
        )
        return (h_src * alpha).segment_sum(
            batch.dst_local, batch.num_nodes, layout=layout
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

    def forward(self, h_src: Tensor, h_prev: Tensor, batch: EdgeBatch) -> Tensor:
        """Fused Eqs. (5)-(7): the only executed kernel for sorted batches,
        for every dtype and both grad modes.

        One graph node that replays the arithmetic of
        :meth:`_forward_composed` on raw arrays (values bitwise equal) and
        pushes analytic gradients to the ``h_src`` and ``h_prev`` rows and
        the four attention weight vectors in one backward step.  Under
        ``no_grad`` :meth:`Tensor._make` drops the closure, so inference is
        this same forward without the tape.  Every step is per-row or per-segment
        (einsum scores, ``reduceat`` reductions), so packed multi-circuit
        sweeps reproduce sequential results bitwise.
        """
        layout = batch.dst_layout()
        if layout is None:
            return self._forward_composed(h_src, h_prev, batch, layout)
        dst = batch.dst_local
        nonempty, starts = layout
        num_nodes = batch.num_nodes
        hs, h_dst_prev = h_src.data, h_prev.data  # (E, d), (m, d)
        w1, w2 = self.w1.weight, self.w2.weight
        w3, w4 = self.w3.weight, self.w4.weight
        # Eq. (5): additive attention scores, softmax within dst segments
        # (scores -> exp -> alpha share one buffer).
        scores = np.einsum("ij,jc->ic", hs, w2.data.T)[:, 0]
        scores += np.einsum("ij,jc->ic", h_dst_prev, w1.data.T)[dst, 0]
        seg_max = np.full(num_nodes, -np.inf, dtype=scores.dtype)
        seg_max[nonempty] = np.maximum.reduceat(scores, starts)
        seg_max[~np.isfinite(seg_max)] = 0.0
        scores -= seg_max[dst]
        alpha = np.exp(scores, out=scores)
        denom = np.zeros(num_nodes, dtype=alpha.dtype)
        denom[nonempty] = np.add.reduceat(alpha, starts)
        alpha /= denom[dst]  # (E,)
        m_lg = np.zeros((num_nodes,) + hs.shape[1:], dtype=hs.dtype)
        m_lg[nonempty] = np.add.reduceat(hs * alpha[:, None], starts, axis=0)
        # Eq. (6): sigmoid gate of the previous state against m_LG.
        gate = np.einsum("ij,jc->ic", h_dst_prev, w3.data.T)
        gate += np.einsum("ij,jc->ic", m_lg, w4.data.T)
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.reciprocal(gate, out=gate)  # (m, 1)
        # Eq. (7): m_TR || m_LG.
        out_data = np.concatenate([m_lg * gate, m_lg], axis=1)

        def backward(g: np.ndarray) -> None:
            d = hs.shape[1]
            g_tr = g[:, :d]
            d_gate = np.einsum("ij,ij->i", g_tr, m_lg)[:, None]  # (m, 1)
            d_s = d_gate * gate * (1.0 - gate)  # through the sigmoid
            d_mlg = g[:, d:] + g_tr * gate + d_s @ w4.data
            d_hdp = d_s @ w3.data  # (m, d)
            # m_lg = segment_sum(h_src * alpha)
            d_scaled = d_mlg[dst]  # (E, d)
            d_hsrc = d_scaled * alpha[:, None]
            d_alpha = np.einsum("ij,ij->i", d_scaled, hs)  # (E,)
            # softmax backward (seg_max shift is constant w.r.t. grads)
            tmp = alpha * d_alpha
            seg_dot = np.zeros(num_nodes, dtype=tmp.dtype)
            seg_dot[nonempty] = np.add.reduceat(tmp, starts)
            d_scores = alpha * (d_alpha - seg_dot[dst])  # (E,)
            # scores = w1(h_dst_prev)[dst] + w2(h_src)
            d_w1out = np.zeros(num_nodes, dtype=d_scores.dtype)
            d_w1out[nonempty] = np.add.reduceat(d_scores, starts)
            d_hdp = d_hdp + d_w1out[:, None] @ w1.data
            d_hsrc += d_scores[:, None] * w2.data
            if w1.requires_grad:
                out._push(w1, d_w1out[None, :] @ h_dst_prev)
            if w2.requires_grad:
                out._push(w2, d_scores[None, :] @ hs)
            if w3.requires_grad:
                out._push(w3, d_s.T @ h_dst_prev)
            if w4.requires_grad:
                out._push(w4, d_s.T @ m_lg)
            if h_src.requires_grad:
                out._push(h_src, d_hsrc)
            if h_prev.requires_grad:
                out._push(h_prev, d_hdp)

        out = Tensor._make(out_data, (h_src, h_prev, w1, w2, w3, w4), backward)
        return out

    def _forward_composed(
        self,
        h_src: Tensor,
        h_prev: Tensor,
        batch: EdgeBatch,
        layout: tuple[np.ndarray, np.ndarray] | None,
    ) -> Tensor:
        """Reference implementation from individual autograd operators.

        Never dispatched by dtype or grad mode — kept as the
        differential-test oracle for :meth:`forward` (bitwise forward
        values, gradients to rounding error) and as the fallback for
        unsorted edge batches, which have no ``reduceat`` layout.
        """
        # Eq. (5): logic message.
        scores = self.w1(h_prev).gather_rows(batch.dst_local) + self.w2(h_src)
        alpha = segment_softmax(
            scores, batch.dst_local, batch.num_nodes, layout=layout
        )
        m_lg = (h_src * alpha).segment_sum(
            batch.dst_local, batch.num_nodes, layout=layout
        )
        # Eq. (6): transition message — gate m_LG against the previous state
        # (transition probability depends on current vs previous state).
        gate = (self.w3(h_prev) + self.w4(m_lg)).sigmoid()
        m_tr = m_lg * gate
        # Eq. (7): concatenate.
        return Tensor.concat([m_tr, m_lg], axis=1)


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

"""Aggregation functions: conv-sum, additive attention, and dual attention.

These instantiate the ``Aggregate`` of Eq. (4).  All three share one calling
convention over *rows*, never the whole ``(N, d)`` state: given
``h_src`` — the ``(E, d)`` current states of the batch's edge sources
(already updated for lower levels of this pass) — ``h_prev`` — the
``(m, d)`` pass-start states of the batch's own nodes (the paper's
``h^{t-1}_v``) — and the :class:`~repro.circuit.graph.EdgeBatch`, they
return one aggregated message row per batch node.  The sweep
(:func:`repro.models.base.propagate`) gathers the rows, calls the
aggregator's array kernels (the prologue once per window of levels, the
level kernel writing straight into the GRU's input) and scatters their
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

    Each aggregator is a kernel pair on raw arrays:
    ``kernel_forward(h_src, h_prev, batch) -> (msg, ctx)`` and
    ``kernel_backward(ctx, g, acc) -> (d_src, d_prev)``, adding parameter
    gradients into ``acc`` (one array per :meth:`parameters` entry);
    ``d_prev`` is ``None`` when the message ignores the previous state.
    Calling the module returns the message alone.

    The forward is split the way the sweep runs it: :meth:`prologue`
    computes, for a whole window of levels at once, every term that
    depends only on the pass-start rows ``h_prev``; :meth:`level_forward`
    then writes one level's message into a slice of the GRU's input
    buffer.  ``kernel_forward`` is the two over one run of rows.  Every
    step is per-row or per-segment (einsum scores, ``reduceat`` reductions
    over the batch's sorted segment layout), so packed multi-circuit
    sweeps and any window height reproduce sequential results bitwise.
    """

    #: width of the produced message, as a multiple of the hidden size.
    out_multiplier: int = 1

    def __init__(self, hidden: int) -> None:
        super().__init__()
        self.hidden = hidden

    @property
    def out_features(self) -> int:
        return self.hidden * self.out_multiplier

    def kernel_forward(
        self, h_src: np.ndarray, h_prev: np.ndarray, batch: EdgeBatch
    ) -> tuple[np.ndarray, tuple]:
        m = batch.num_nodes
        level = (batch, batch.nodes, batch.src, batch.dst_local, _starts(batch), 0, m)
        dtype = np.result_type(h_src, h_prev, *(p.data for p in self.parameters()))
        msg = np.empty((m, self.out_features), dtype=dtype)
        ctx = self.level_forward(h_src, h_prev, self.prologue(h_prev), level, msg)
        return msg, ctx

    def prologue(self, h_prev: np.ndarray) -> tuple:
        """The terms that depend only on the pass-start rows ``h_prev``
        (and the parameters), for all of them at once."""
        raise NotImplementedError

    def level_forward(
        self,
        h_src: np.ndarray,
        h_prev: np.ndarray,
        terms: tuple,
        level: tuple,
        out: np.ndarray,
    ) -> tuple:
        """Write the messages of ``level`` — a
        :class:`~repro.runtime.plan.SweepWindow` level, whose rows
        ``lo:hi`` of the prologue's ``terms`` it reads — into ``out``'s
        first :attr:`out_features` columns; returns the backward ``ctx``."""
        raise NotImplementedError


def _starts(batch: EdgeBatch) -> np.ndarray:
    """Start offsets of the batch's message segments, one per node."""
    layout = batch.dst_layout()
    if layout is None:
        raise ValueError(
            "edge batch destinations are unsorted; aggregator kernels need "
            "sorted dst_local (GraphPlan.schedule checks every schedule)"
        )
    if layout[0].size != batch.num_nodes:
        raise ValueError(
            "edge batch has a node without messages; aggregator kernels "
            "need one per node (GraphPlan.schedule normalizes every schedule)"
        )
    return layout[1]


def _attend(
    hs: np.ndarray, s1: np.ndarray, w2t: np.ndarray, level: tuple, out: np.ndarray
) -> np.ndarray:
    """Eq. (5) for one level: writes the message ``sum_u alpha_uv h_u``
    into ``out``, with additive attention scores softmaxed within each
    destination segment, and returns ``alpha`` (scores -> exp -> alpha
    share one buffer).  ``s1`` holds the prologue's ``w1 h_prev`` scores
    of the window's rows."""
    _, _, _, dst, starts, lo, hi = level
    scores = np.einsum("ij,jc->ic", hs, w2t)[:, 0]
    scores += s1[lo:hi][dst]
    seg_max = np.maximum.reduceat(scores, starts)
    seg_max[~np.isfinite(seg_max)] = 0.0
    scores -= seg_max[dst]
    alpha = np.exp(scores, out=scores)
    alpha /= np.add.reduceat(alpha, starts)[dst]  # (E,)
    np.add.reduceat(hs * alpha[:, None], starts, axis=0, out=out)
    return alpha


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
    dst, starts, hs, hp, alpha = ctx
    d_scaled = d_msg[dst]  # (E, d)
    d_src = d_scaled * alpha[:, None]
    d_alpha = np.einsum("ij,ij->i", d_scaled, hs)  # (E,)
    # softmax backward (the seg_max shift is constant w.r.t. grads)
    seg_dot = np.add.reduceat(alpha * d_alpha, starts)
    d_scores = alpha * (d_alpha - seg_dot[dst])  # (E,)
    # scores = w1(h_prev)[dst] + w2(h_src)
    d_w1out = np.add.reduceat(d_scores, starts)
    d_src += d_scores[:, None] * w2
    d_w1 += d_w1out[None, :] @ hp
    d_w2 += d_scores[None, :] @ hs
    return d_src, d_w1out[:, None] @ w1


class ConvSumAggregator(Aggregator):
    """m_v = sum over predecessors of W h_u  (convolutional sum)."""

    def __init__(self, hidden: int, seed: int = 0) -> None:
        super().__init__(hidden)
        self.proj = Linear(hidden, hidden, seed=seed)

    def prologue(self, h_prev: np.ndarray) -> tuple:
        # The contiguous transpose, once per window: BLAS picks
        # M-dependent kernels for a transposed-view right operand.
        return np.ascontiguousarray(self.proj.weight.data.T), self.proj.bias.data

    def level_forward(self, h_src, h_prev, terms, level, out) -> tuple:
        w_t, bias = terms
        proj = rowstable_matmul(h_src, w_t)
        proj += bias
        np.add.reduceat(proj, level[4], axis=0, out=out[:, : self.hidden])
        return level[3], h_src

    def kernel_backward(
        self, ctx: tuple, g: np.ndarray, acc: list[np.ndarray]
    ) -> tuple[np.ndarray, None]:
        dst, h_src = ctx
        d_proj = g[dst]  # (E, d)
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

    def prologue(self, h_prev: np.ndarray) -> tuple:
        s1 = np.einsum("ij,jc->ic", h_prev, self.w1.weight.data.T)[:, 0]
        return s1, self.w2.weight.data.T

    def level_forward(self, h_src, h_prev, terms, level, out) -> tuple:
        s1, w2t = terms
        alpha = _attend(h_src, s1, w2t, level, out[:, : self.hidden])
        return level[3], level[4], h_src, h_prev, alpha

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

    def prologue(self, h_prev: np.ndarray) -> tuple:
        """Eq. (5)'s ``w1 h_prev`` score and Eq. (6)'s ``w3 h_prev`` gate
        term of every row."""
        s1 = np.einsum("ij,jc->ic", h_prev, self.w1.weight.data.T)[:, 0]
        g3 = np.einsum("ij,jc->ic", h_prev, self.w3.weight.data.T)
        return s1, self.w2.weight.data.T, g3, self.w4.weight.data.T

    def level_forward(self, h_src, h_prev, terms, level, out) -> tuple:
        """Fused Eqs. (5)-(7); replays the arithmetic of the same equations
        composed from autograd operators (values bitwise equal; the tests
        hold that composition as the oracle)."""
        s1, w2t, g3, w4t = terms
        d = self.hidden
        # Eq. (5): the logic message, written as the second half.
        m_lg = out[:, d : 2 * d]
        alpha = _attend(h_src, s1, w2t, level, m_lg)
        # Eq. (6): sigmoid gate of the previous state against m_LG, in
        # place on the prologue's rows.
        gate = g3[level[5] : level[6]]
        gate += np.einsum("ij,jc->ic", m_lg, w4t)
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.reciprocal(gate, out=gate)  # (m, 1)
        # Eq. (7): m_TR || m_LG.
        np.multiply(m_lg, gate, out=out[:, :d])
        return (level[3], level[4], h_src, h_prev, alpha), m_lg, gate

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

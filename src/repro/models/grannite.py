"""Grannite-style baseline: GNN toggle-rate inference for combinational logic.

Grannite [18] (Zhang, Ren, Khailany, DAC'20) estimates per-gate average
toggle rates with a DAG-GNN, but differs from DeepSeq in exactly the ways
the paper's Section V-A3c discusses:

* the toggle rates and logic probabilities of *sources* — primary inputs
  and register (DFF) outputs — are not predicted but supplied as inputs,
  obtained from RTL simulation (here: from our logic simulator);
* only the combinational logic is processed, in a single forward pass —
  there is no periodic information exchange between the memory elements and
  the combinational logic and no reverse pass;
* node features are richer: gate-type one-hot plus truth-table-derived
  signal statistics (the output-1 probability of the gate under independent
  uniform inputs).

This model is used as the learning-based power-estimation baseline of
Tables V and VI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import ONE_HOT_DIM, AIG_TYPES, GateType, gate_truth_table
from repro.circuit.graph import CircuitGraph
from repro.models.aggregators import Aggregator, make_aggregator
from repro.models.base import (
    LevelPass,
    ModelConfig,
    Prediction,
    _h0_base,
    propagate,
    propagate_backward,
)
from repro.nn.layers import MLP, Linear
from repro.nn.module import Module
from repro.nn.recurrent import GRUCell
from repro.runtime.plan import plan_for

__all__ = ["SourceActivity", "Grannite"]


@dataclass
class SourceActivity:
    """Simulated activity of the sources (PIs and DFFs) of one circuit.

    The paper feeds Grannite "register states and unit inputs from RTL
    simulations"; this is that information distilled to per-source
    probabilities: logic-1 probability and 0->1 / 1->0 transition
    probabilities, aligned with ``graph.pi_ids`` followed by
    ``graph.dff_ids``.
    """

    source_ids: np.ndarray
    logic_prob: np.ndarray
    tr01: np.ndarray
    tr10: np.ndarray

    @classmethod
    def from_sim(cls, graph: CircuitGraph, sim_result) -> "SourceActivity":
        ids = np.concatenate([graph.pi_ids, graph.dff_ids])
        return cls(
            source_ids=ids,
            logic_prob=sim_result.logic_prob[ids],
            tr01=sim_result.tr01_prob[ids],
            tr10=sim_result.tr10_prob[ids],
        )

    def stacked(self) -> np.ndarray:
        return np.stack([self.logic_prob, self.tr01, self.tr10], axis=1)


def _tt_prob1(gate_type: GateType) -> float:
    """Output-1 probability under uniform independent inputs (tt feature)."""
    if gate_type in (GateType.PI, GateType.DFF):
        return 0.5
    arity = 2 if gate_type is GateType.AND else 1
    table = gate_truth_table(gate_type, arity)
    return float(table.mean())


class Grannite(Module):
    """Forward-only toggle-rate GNN over the combinational cone.

    Args:
        config: hidden width / aggregator / seeds; ``iterations`` is ignored
            (Grannite is single-pass by design).
    """

    def __init__(self, config: ModelConfig | None = None) -> None:
        super().__init__()
        self.config = config or ModelConfig(aggregator="attention")
        d = self.config.hidden
        seed = self.config.seed
        self.source_proj = Linear(3, d, seed=seed + 1)
        self.agg: Aggregator = make_aggregator(self.config.aggregator, d, seed=seed)
        gru_in = self.agg.out_features + ONE_HOT_DIM + 1  # +1: tt feature
        self.gru = GRUCell(gru_in, d, seed=seed + 2)
        self.head_tr = MLP(
            d, self.config.mlp_hidden, 2, num_layers=self.config.mlp_layers,
            sigmoid_out=True, seed=seed + 3,
        )
        # Truth-table feature per type index (``graph.type_index``).
        self._tt = np.array([_tt_prob1(t) for t in AIG_TYPES])

    # ------------------------------------------------------------------
    def node_features(self, graph: CircuitGraph) -> np.ndarray:
        """One-hot gate type plus the truth-table output-1 probability."""
        tt = self._tt[graph.type_index]
        return np.concatenate([graph.features, tt[:, None]], axis=1)

    def initial_hidden(
        self,
        graph: CircuitGraph,
        sources: SourceActivity,
        log: list | None = None,
    ) -> np.ndarray:
        """The shared random base with the source rows replaced by the
        projected source activity (fixed during propagation)."""
        h0 = _h0_base(graph.num_nodes, self.config.hidden).copy()
        src_embed, ctx = self.source_proj.kernel_forward(sources.stacked())
        h0[sources.source_ids] = src_embed
        if log is not None:
            log.append((sources.source_ids, ctx))
        return h0

    def forward(
        self, graph: CircuitGraph, sources: SourceActivity, log: list | None = None
    ) -> np.ndarray:
        """Predict (N, 2) transition probabilities for combinational gates.

        Rows of PIs/DFFs are whatever the head emits for their (fixed)
        embeddings and are *not used*; :meth:`predict_full` overwrites them
        with the simulated source activity as the Grannite flow prescribes.
        With a ``log``, keeps the contexts :meth:`backward` needs.
        """
        batches, _ = plan_for(graph).schedule(custom=True)
        features = self.node_features(graph)
        rows = [features[b.nodes] for b in batches]
        h = propagate(
            self.initial_hidden(graph, sources, log),
            [LevelPass(batches, rows, self.agg, self.gru)],
            log=log,
        )
        if log is None:
            return self.head_tr(h)
        pred, head_ctx = self.head_tr.kernel_forward(h)
        log.append(head_ctx)
        return pred

    def backward(self, log: list, d_tr: np.ndarray) -> None:
        """Backward of :meth:`forward`: adds every parameter gradient into
        ``p.grad`` and pops ``log`` to empty."""
        d_h = self.head_tr.backward_to_grads(log.pop(), d_tr)
        source_ids, proj_ctx = log.pop(0)
        d_h0 = propagate_backward(log, d_h)
        self.source_proj.backward_to_grads(proj_ctx, d_h0[source_ids])

    def predict_full(
        self, graph: CircuitGraph, sources: SourceActivity
    ) -> Prediction:
        """Complete netlist activity: predicted comb gates + given sources."""
        pred_tr = self.forward(graph, sources)
        pred_tr[sources.source_ids, 0] = sources.tr01
        pred_tr[sources.source_ids, 1] = sources.tr10
        lg = np.full(graph.num_nodes, 0.5)
        lg[sources.source_ids] = sources.logic_prob
        return Prediction(tr=pred_tr, lg=lg)

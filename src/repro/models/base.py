"""Shared machinery of all DAG-GNN models.

Both DeepSeq and the baselines are *recurrent levelized DAG-GNNs*: per
iteration they run a forward pass over level batches (aggregate from
predecessors, combine with a GRU), a reverse pass over reverse-level
batches, and optionally the DFF copy step; after T iterations two MLP heads
regress per-node transition and logic probabilities.  The differences are
confined to (a) which nodes each pass updates, (b) which edges deliver
messages, and (c) the aggregation function — all expressed as data here.

Workload conditioning follows the paper exactly: the embedding of every PI
is initialized to its workload logic-1 probability broadcast across all
dimensions and *held fixed*; all other embeddings start random and update
during propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.gates import ONE_HOT_DIM
from repro.circuit.graph import CircuitGraph, EdgeBatch
from repro.lru import FingerprintLRU
from repro.nn.layers import MLP
from repro.nn.module import Module
from repro.nn.recurrent import GRUCell
from repro.models.aggregators import Aggregator, make_aggregator
from repro.runtime.plan import GraphPlan, SweepWindow, baseline_batches, plan_for
from repro.sim.workload import Workload

__all__ = [
    "LevelPass",
    "ModelConfig",
    "Prediction",
    "RecurrentDagGnn",
    "RowCopy",
    "baseline_batches",
    "propagate",
    "propagate_backward",
    "window_rows",
]


#: Cached random base matrices for :meth:`RecurrentDagGnn.initial_hidden`,
#: keyed by (num_nodes, hidden).  The base depends only on those two values
#: (fixed seed), so re-deriving it per call is pure waste in the serving
#: and training loops; a small LRU bounds memory for huge packed unions.
#: Every serving worker thread draws from it, and nothing else serializes
#: them — hence the locked LRU.
_H0_BASE_CACHE = FingerprintLRU(16, name="h0 base cache")


def _h0_base(num_nodes: int, hidden: int) -> np.ndarray:
    key = (num_nodes, hidden)
    base = _H0_BASE_CACHE.get(key)
    if base is None:
        rng = np.random.default_rng(0xD5EC + num_nodes)
        base = rng.uniform(-1.0, 1.0, size=(num_nodes, hidden)) / np.sqrt(hidden)
        base = _H0_BASE_CACHE.insert(key, base)
    return base


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters shared by every model (paper Section IV-A3)."""

    hidden: int = 64
    iterations: int = 10
    aggregator: str = "dual_attention"
    mlp_hidden: int = 64
    mlp_layers: int = 3
    seed: int = 0


@dataclass
class Prediction:
    """Per-node outputs of a model forward pass."""

    tr: np.ndarray  # (N, 2) [p01, p10]
    lg: np.ndarray  # (N,)

    @property
    def toggle_rate(self) -> np.ndarray:
        return self.tr.sum(axis=1)


#: Bytes of pass-start arrays one sweep window holds at most: the gather of
#: its rows, the GRU's hidden gates, the attention scores and the GRU input
#: buffer.  A few hundred rows at the benchmark's width, so a window spans
#: many small levels and stays cache-resident.
_WINDOW_BYTES = 1 << 18


def window_rows(gru: GRUCell, dtype) -> int:
    """Rows per sweep window for ``gru``'s pass at ``dtype``."""
    row = (4 * gru.hidden_size + 2 + gru.input_size) * np.dtype(dtype).itemsize
    return max(1, _WINDOW_BYTES // row)


@dataclass(frozen=True)
class LevelPass:
    """One levelized pass: per level, aggregate the sources' current rows
    against the nodes' own rows, GRU-combine with the nodes' rows of the
    ``(N, F)`` matrix ``features`` and write the new rows.  ``windows`` is
    the pass's schedule cut into :class:`~repro.runtime.plan.SweepWindow`
    runs (:meth:`GraphPlan.windows`)."""

    windows: Sequence[SweepWindow]
    features: np.ndarray
    agg: Aggregator
    gru: GRUCell


@dataclass(frozen=True)
class RowCopy:
    """``H[dst] = H[src]`` in one step: DeepSeq's DFF copy."""

    dst: np.ndarray
    src: np.ndarray


def propagate(
    state: np.ndarray,
    steps: Sequence[LevelPass | RowCopy],
    iterations: int = 1,
    log: list | None = None,
) -> np.ndarray:
    """Run ``steps`` ``iterations`` times on the ``(N, d)`` buffer ``state``,
    in place; returns ``state``.

    No node is written twice in one pass (checked per schedule by
    :meth:`GraphPlan.schedule`), so when a level runs its nodes still hold
    their pass-start rows and no snapshot of the pass start is needed.
    That is what lets each window of levels start with one prologue over
    all of its rows: ``H = state[nodes]``, the GRU's hidden gates and the
    aggregator's previous-state terms (kernels whose row results do not
    depend on the number of rows), and one GRU input buffer with the
    feature columns gathered.  Each level then calls the two level kernels
    on row slices: ``agg.level_forward`` writes the message straight into
    the buffer and ``gru.level_forward`` reads it.

    With a ``log`` (training), each level appends its two kernel contexts
    (views into its window's arrays) and each DFF copy its
    :class:`RowCopy`, for :func:`propagate_backward`.  What the log keeps
    is O(sum of (E + m) * d) values per pass, never a copy of the state
    per level.  Inference passes no log and keeps nothing.
    """
    for _ in range(iterations):
        for step in steps:
            if isinstance(step, RowCopy):
                state[step.dst] = state[step.src]
                if log is not None:
                    log.append(step)
                continue
            agg, gru = step.agg, step.gru
            width = agg.out_features
            for window in step.windows:
                h_win = state[window.nodes]
                agg_terms = agg.prologue(h_win)
                gru_terms = gru.prologue(h_win)
                x_win = np.empty((len(h_win), gru.input_size), dtype=state.dtype)
                np.take(step.features, window.nodes, axis=0, out=x_win[:, width:])
                msg_win = x_win[:, :width]
                for level in window.levels:
                    batch, nodes, src, _, _, lo, hi = level
                    h_prev = h_win[lo:hi]
                    agg_ctx = agg.level_forward(
                        state[src], h_prev, agg_terms, level, msg_win[lo:hi]
                    )
                    rows, gru_ctx = gru.level_forward(
                        x_win[lo:hi], h_prev, gru_terms, lo, hi
                    )
                    state[nodes] = rows
                    if log is not None:
                        log.append((agg, gru, batch, agg_ctx, gru_ctx))
    return state


def propagate_backward(log: list, grad: np.ndarray) -> np.ndarray:
    """Backward of :func:`propagate` for the gradient ``grad`` of its final
    state; returns the gradient of the initial state (``grad``'s buffer).

    Pops ``log`` to empty, so each level's saved arrays are freed as soon
    as its backward has run.  Per level: take and clear ``G[nodes]``, run
    the GRU's and the aggregator's ``kernel_backward``, scatter-add the
    source-row gradients into ``G[src]`` and add the previous-row gradients
    into ``G[nodes]``.  Parameter gradients add into one accumulator per
    cell and reach ``p.grad`` once at the end; a cell no level ran leaves
    its ``p.grad`` untouched.
    """
    accs: dict[Module, list[np.ndarray]] = {}
    while log:
        entry = log.pop()
        if isinstance(entry, RowCopy):
            rows = grad[entry.dst]
            grad[entry.dst] = 0.0
            np.add.at(grad, entry.src, rows)
            continue
        agg, gru, batch, agg_ctx, gru_ctx = entry
        for cell in (agg, gru):
            if cell not in accs:
                accs[cell] = cell.grad_buffers()
        rows = grad[batch.nodes]
        grad[batch.nodes] = 0.0
        d_x, d_prev = gru.kernel_backward(gru_ctx, rows, accs[gru])
        d_src, d_agg_prev = agg.kernel_backward(
            agg_ctx, d_x[:, : agg.out_features], accs[agg]
        )
        np.add.at(grad, batch.src, d_src)
        if d_agg_prev is not None:
            d_prev += d_agg_prev
        grad[batch.nodes] += d_prev
    for cell, acc in accs.items():
        cell.accumulate_grads(acc)
    return grad


class RecurrentDagGnn(Module):
    """Recurrent levelized DAG-GNN with forward and reverse layers.

    Subclasses configure the propagation through three hooks:
    :meth:`batches_for` (which EdgeBatches each pass visits),
    ``dff_copy_step`` (DeepSeq's step 4) and ``config.iterations``.

    Args:
        config: shared hyper-parameters.
        dff_copy_step: after each iteration copy every DFF's predecessor
            embedding onto the DFF (customized propagation step 4).
        use_custom_batches: use DeepSeq's cut-graph batches (True) or the
            baseline batches including DFF updates (False).
    """

    def __init__(
        self,
        config: ModelConfig,
        dff_copy_step: bool,
        use_custom_batches: bool,
    ) -> None:
        super().__init__()
        self.config = config
        self.dff_copy_step = dff_copy_step
        self.use_custom_batches = use_custom_batches
        d = config.hidden
        seed = config.seed
        self.forward_agg: Aggregator = make_aggregator(
            config.aggregator, d, seed=seed
        )
        self.reverse_agg: Aggregator = make_aggregator(
            config.aggregator, d, seed=seed + 10
        )
        gru_in = self.forward_agg.out_features + ONE_HOT_DIM
        self.forward_gru = GRUCell(gru_in, d, seed=seed + 20)
        self.reverse_gru = GRUCell(gru_in, d, seed=seed + 30)
        self.head_tr = MLP(
            d, config.mlp_hidden, 2, num_layers=config.mlp_layers,
            sigmoid_out=True, seed=seed + 40,
        )
        self.head_lg = MLP(
            d, config.mlp_hidden, 1, num_layers=config.mlp_layers,
            sigmoid_out=True, seed=seed + 50,
        )

    # ------------------------------------------------------------------
    def batches_for(self, graph: CircuitGraph) -> tuple[list[EdgeBatch], list[EdgeBatch]]:
        """This model's (forward, reverse) schedules for ``graph``.

        Served from the process-wide content-hash-keyed plan cache
        (:func:`repro.runtime.plan.plan_for`), so every model instance in
        the process shares one compiled schedule per circuit structure.
        """
        return plan_for(graph).schedule(custom=self.use_custom_batches)

    def initial_hidden(self, graph: CircuitGraph, workload: Workload) -> np.ndarray:
        """Paper init: PI rows = workload prob broadcast; rest random.

        The random part is drawn from a *fixed* seed (mixed with the graph
        size only) so that a model's predictions are fully determined by
        its parameters — loading a checkpoint into a model constructed with
        any seed reproduces identical outputs.
        """
        h0 = np.empty((graph.num_nodes, self.config.hidden))
        self.initial_hidden_into(graph, workload, h0)
        return h0

    def initial_hidden_into(
        self, graph: CircuitGraph, workload: Workload, out: np.ndarray
    ) -> None:
        """Write the initial hidden state into a preallocated buffer.

        The packed runtime assembles the union's h0 member by member,
        straight into slices of one buffer in the sweep dtype: a single
        cast-on-assignment per member instead of copy, concatenate, cast
        (elementwise values are identical, so float64 stays bitwise and
        float32 matches the ``astype`` path).
        """
        if workload.num_pis != graph.num_pis:
            raise ValueError(
                f"workload has {workload.num_pis} PIs, graph has {graph.num_pis}"
            )
        out[...] = _h0_base(graph.num_nodes, self.config.hidden)
        out[graph.pi_ids] = workload.pi_probs[:, None]

    def embed(
        self,
        graph: CircuitGraph,
        workload: Workload | None = None,
        *,
        plan: GraphPlan | None = None,
        h0: np.ndarray | None = None,
        log: list | None = None,
    ) -> np.ndarray:
        """Run the full T-iteration propagation; returns final (N, d) states.

        Args:
            graph: the circuit (or packed super-circuit) to embed.
            workload: PI stimulus; may be omitted when ``h0`` is given.
            plan: pre-compiled plan override (defaults to the shared cache).
            h0: initial hidden-state override — the batched runtime passes
                the concatenation of per-member initial states here, and
                the sweep runs in ``h0``'s dtype (features follow).  Its
                buffer becomes the sweep's state and is overwritten in
                place.
            log: training only — the list :func:`propagate` appends its
                level contexts to.
        """
        if plan is None:
            plan = plan_for(graph)
        if h0 is None:
            if workload is None:
                raise ValueError("embed needs a workload when h0 is not given")
            h0 = self.initial_hidden(graph, workload)
        rows = window_rows(self.forward_gru, h0.dtype)
        fwd, rev = plan.windows(self.use_custom_batches, rows)
        features = plan.features(h0.dtype)
        steps: list[LevelPass | RowCopy] = [
            LevelPass(fwd, features, self.forward_agg, self.forward_gru),
            LevelPass(rev, features, self.reverse_agg, self.reverse_gru),
        ]
        if self.dff_copy_step and graph.dff_ids.size:
            steps.append(RowCopy(graph.dff_ids, graph.dff_src))
        return propagate(h0, steps, self.config.iterations, log)

    def forward(
        self,
        graph: CircuitGraph,
        workload: Workload | None = None,
        *,
        plan: GraphPlan | None = None,
        h0: np.ndarray | None = None,
        log: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (pred_tr (N,2), pred_lg (N,1)); arguments as :meth:`embed`.

        Training and inference run the same kernels; with a ``log`` the
        sweep's and the heads' contexts are kept for :meth:`backward`.
        """
        h = self.embed(graph, workload, plan=plan, h0=h0, log=log)
        if log is None:
            return self.head_tr(h), self.head_lg(h)
        pred_tr, tr_ctx = self.head_tr.kernel_forward(h)
        pred_lg, lg_ctx = self.head_lg.kernel_forward(h)
        log.append((tr_ctx, lg_ctx))
        return pred_tr, pred_lg

    def backward(self, log: list, d_tr: np.ndarray, d_lg: np.ndarray) -> None:
        """Backward of :meth:`forward` for the prediction gradients: adds
        every parameter gradient into ``p.grad`` and pops ``log`` to empty."""
        tr_ctx, lg_ctx = log.pop()
        d_h = self.head_tr.backward_to_grads(tr_ctx, d_tr)
        d_h += self.head_lg.backward_to_grads(lg_ctx, d_lg)
        del tr_ctx, lg_ctx  # freed before the sweep's backward runs
        propagate_backward(log, d_h)

    def predict(
        self,
        graph: CircuitGraph,
        workload: Workload,
        *,
        plan: GraphPlan | None = None,
        dtype=None,
    ) -> Prediction:
        """Inference helper (no context log, in-place propagation).

        Every dtype goes through :func:`repro.runtime.predictor.predict_one`
        — one code path.  ``None``/float64 runs on the master weights,
        float32 on a cast replica (:func:`repro.runtime.predictor.cast_model`);
        both execute the same kernels, and neither rebinds the parameters,
        so concurrent calls need no lock.
        """
        from repro.runtime.predictor import predict_one

        if dtype is None:
            dtype = np.float64
        return predict_one(self, graph, workload, dtype=dtype, plan=plan)

    def readout(
        self, graph: CircuitGraph, workload: Workload, mode: str = "mean"
    ) -> np.ndarray:
        """Graph-level embedding (Eq. 2's Readout over final node states).

        The paper trains node-level objectives only; this readout is the
        natural graph-level summary for downstream classification /
        retrieval use-cases (see ``examples/family_classification.py``).
        ``mode``: ``mean`` | ``max`` | ``meanmax`` (concatenation).
        Runs at float64: on the master weights, as :meth:`predict` does.
        """
        from repro.runtime.predictor import cast_model

        h = cast_model(self, np.float64).embed(graph, workload)
        if mode == "mean":
            return h.mean(axis=0)
        if mode == "max":
            return h.max(axis=0)
        if mode == "meanmax":
            return np.concatenate([h.mean(axis=0), h.max(axis=0)])
        raise ValueError(f"unknown readout mode {mode!r}")

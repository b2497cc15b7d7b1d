"""Batched inference: dtype fast path, packed execution, many-circuit calls.

Three layers, lowest first:

* :func:`cast_model` — a model whose parameters are at the execution
  dtype: the model itself, or a cached cast replica.  This is how the
  float32 fast path runs without touching the float64 master weights that
  training and gradient checking rely on; no call ever rebinds another
  caller's parameters, so inference needs no lock.
* :func:`predict_one` / :func:`predict_packed` — functional entry points
  running one circuit (or one packed batch of K circuits) through a model
  at a chosen dtype, reusing compiled plans from the shared cache.
* :class:`BatchedPredictor` — a stateless packer over
  :func:`predict_packed`: ``predict_many(circuits, workloads)`` cuts the
  circuits in order into super-graphs of at most ``batch_size`` members
  (fewer under a memory budget) and runs each pack on the calling
  thread.  For queued, deadline-bound requests use
  :class:`repro.serve.Server` (``workers=1`` is this packed sweep behind
  the serving batcher); this module never imports :mod:`repro.serve`, which
  builds on it.

Equivalence guarantee: packed execution computes bit-identical float64
results to sequential :meth:`RecurrentDagGnn.predict` calls, because each
member keeps its own initial hidden state (seeded by *member* size, not
union size), the union contains no cross-member edges, and normalized
schedules update a node iff it receives messages.  The float32 path
matches to ~1e-4 max-abs on probability outputs.
"""

from __future__ import annotations

import copy
import weakref
from typing import Iterator, Sequence, TypeVar

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.memory import MemoryBudget
from repro.models.base import Prediction, RecurrentDagGnn
from repro.nn.module import Module, parameter_version
from repro.runtime.pack import PackedPlan, pack_graphs
from repro.runtime.plan import GraphPlan, plan_for

M = TypeVar("M", bound=Module)

__all__ = [
    "cast_model",
    "predict_one",
    "predict_packed",
    "run_packed_isolated",
    "BatchedPredictor",
]


#: model -> {dtype: (parameter_version() when cast, replica)}.
_REPLICAS: "weakref.WeakKeyDictionary[Module, dict[np.dtype, tuple[int, Module]]]" = (
    weakref.WeakKeyDictionary()
)


def cast_model(model: M, dtype) -> M:
    """``model`` with every parameter at ``dtype``.

    That is ``model`` itself when its parameters already are ``dtype``;
    otherwise a cached replica: a deep copy whose parameters are
    ``astype(dtype)`` copies of the masters.  A replica is never edited.
    Once the global parameter version moves (optimizer steps and
    ``load_state_dict`` bump it) the next call builds a new one, while a
    caller still running the old replica finishes on the old weights.
    Hand-edited ``p.data`` needs
    :func:`~repro.nn.module.bump_parameter_version` or
    :meth:`BatchedPredictor.refresh_parameters` to be seen.
    """
    dt = np.dtype(dtype)
    if all(p.data.dtype == dt for p in model.parameters()):
        return model
    per_model = _REPLICAS.setdefault(model, {})
    # Read before copying: a step landing mid-copy leaves the entry
    # tagged stale, and the next call rebuilds it.
    version = parameter_version()
    cached = per_model.get(dt)
    if cached is not None and cached[0] == version:
        return cached[1]
    replica = copy.deepcopy(model)
    for p in replica.parameters():
        p.data = p.data.astype(dt)
        p.grad = None
    # Racing builders each store a correct replica; the last one stays.
    per_model[dt] = (version, replica)
    return replica


def _drop_replicas(model: Module) -> None:
    _REPLICAS.pop(model, None)


def _resolve(circuit: CircuitGraph | Netlist, plan: GraphPlan | None):
    if plan is None:
        plan = plan_for(circuit)
    graph = circuit if isinstance(circuit, CircuitGraph) else plan.graph
    return graph, plan


def predict_one(
    model: RecurrentDagGnn,
    circuit: CircuitGraph | Netlist,
    workload,
    dtype=np.float64,
    plan: GraphPlan | None = None,
) -> Prediction:
    """Inference on one circuit at ``dtype`` through the compiled plan."""
    graph, plan = _resolve(circuit, plan)
    dt = np.dtype(dtype)
    h0 = model.initial_hidden(graph, workload)
    if h0.dtype != dt:
        h0 = h0.astype(dt)
    pred_tr, pred_lg = cast_model(model, dt).forward(graph, plan=plan, h0=h0)
    return Prediction(tr=pred_tr, lg=pred_lg[:, 0].copy())


def predict_packed(
    model: RecurrentDagGnn,
    graphs: Sequence[CircuitGraph],
    workloads: Sequence,
    dtype=np.float64,
    packed: PackedPlan | None = None,
) -> list[Prediction]:
    """Run K circuits as one packed sweep; returns per-member predictions.

    Each member keeps the initial hidden state it would get standalone, so
    float64 results are bit-identical to sequential ``predict`` calls.
    """
    if len(graphs) != len(workloads):
        raise ValueError(
            f"{len(graphs)} circuits vs {len(workloads)} workloads"
        )
    if packed is None:
        packed = pack_graphs(graphs)
    elif packed.num_members != len(graphs):
        raise ValueError(
            f"packed plan holds {packed.num_members} members, got {len(graphs)} circuits"
        )
    dt = np.dtype(dtype)
    h0 = np.empty((packed.num_nodes, model.config.hidden), dtype=dt)
    for member, (g, wl) in enumerate(zip(graphs, workloads)):
        model.initial_hidden_into(g, wl, h0[packed.member_slice(member)])
    pred_tr, pred_lg = cast_model(model, dt).forward(
        packed.plan.graph, plan=packed.plan, h0=h0
    )
    out: list[Prediction] = []
    for member in range(packed.num_members):
        sl = packed.member_slice(member)
        out.append(
            Prediction(tr=pred_tr[sl].copy(), lg=pred_lg[sl, 0].copy())
        )
    return out


def run_packed_isolated(
    model: RecurrentDagGnn,
    graphs: Sequence[CircuitGraph],
    workloads: Sequence,
    dtype=np.float64,
) -> list[Prediction | Exception]:
    """Packed inference with per-member failure isolation.

    Runs the whole batch as one packed sweep; if that fails, falls back to
    running members individually so one poison circuit yields an
    :class:`Exception` in its own slot while its batch-mates still get
    predictions.  The serving front ends (:mod:`repro.serve.server` and
    the gateway's workers) resolve their requests through this.
    """
    try:
        return list(predict_packed(model, graphs, workloads, dtype=dtype))
    except Exception:
        out: list[Prediction | Exception] = []
        for graph, wl in zip(graphs, workloads):
            try:
                out.append(predict_packed(model, [graph], [wl], dtype=dtype)[0])
            except Exception as exc:
                out.append(exc)
        return out


class BatchedPredictor:
    """Run many circuits through packed batched inference.

    Args:
        model: any :class:`RecurrentDagGnn` (DeepSeq or baseline).
        batch_size: circuits packed per super-graph sweep (K).
        dtype: execution dtype — float32 (default) is the inference fast
            path; float64 reproduces sequential ``predict`` bitwise.
        memory_budget: optional :class:`~repro.memory.MemoryBudget`.  Its
            ``plan_bytes`` bounds each pack: members are admitted while
            the sum of their plans' materialized feature-row bytes
            (:meth:`GraphPlan.resident_bytes`) stays within the budget
            (always at least one member — per-circuit state is
            irreducible).  Results are unchanged; only pack shape and
            resident memory move.

    Example::

        predictor = BatchedPredictor(model, batch_size=8)
        results = predictor.predict_many(graphs, workloads)

    Every call runs on the calling thread and holds no state between
    calls; for queued requests with a latency bound use
    :class:`repro.serve.Server` (``workers=1`` is this packed sweep
    behind the serving batcher).  Optimizer steps and ``load_state_dict``
    are seen by the next call; after editing ``p.data`` by hand, call
    :meth:`refresh_parameters`.
    """

    def __init__(
        self,
        model: RecurrentDagGnn,
        batch_size: int = 8,
        dtype=np.float32,
        memory_budget: MemoryBudget | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.dtype = np.dtype(dtype)
        self.memory_budget = memory_budget

    def __enter__(self) -> "BatchedPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        """Nothing to release; kept so ``with`` blocks still work."""

    def _packs(self, graphs: Sequence[CircuitGraph]) -> Iterator[slice]:
        """Cut ``graphs`` in order into packs of at most ``batch_size``.

        With a ``memory_budget``, a pack closes early once the next member
        would push the summed feature-row bytes past ``plan_bytes`` — but
        never below one member.
        """
        cap = None if self.memory_budget is None else self.memory_budget.plan_bytes
        lo = 0
        while lo < len(graphs):
            hi, total = lo, 0
            while hi < len(graphs) and hi - lo < self.batch_size:
                if cap is not None:
                    total += plan_for(graphs[hi]).resident_bytes(
                        self.model.use_custom_batches, self.dtype
                    )
                    if hi > lo and total > cap:
                        break
                hi += 1
            yield slice(lo, hi)
            lo = hi

    def predict_many(
        self, circuits: Sequence[CircuitGraph | Netlist], workloads: Sequence
    ) -> list[Prediction]:
        """Predictions for many circuits, in order, one packed sweep per pack.

        A failing pack raises its exception (a workload/circuit PI mismatch
        is a :class:`ValueError` raised before that pack's sweep).
        """
        if len(circuits) != len(workloads):
            raise ValueError(
                f"{len(circuits)} circuits vs {len(workloads)} workloads"
            )
        graphs = [
            c if isinstance(c, CircuitGraph) else plan_for(c).graph for c in circuits
        ]
        out: list[Prediction] = []
        for pack in self._packs(graphs):
            out += predict_packed(
                self.model, graphs[pack], workloads[pack], dtype=self.dtype
            )
        return out

    def predict(self, circuit: CircuitGraph | Netlist, workload) -> Prediction:
        """One circuit as a pack of one."""
        return self.predict_many([circuit], [workload])[0]

    def refresh_parameters(self) -> None:
        """Drop the model's cast replicas, so the next call casts its
        current parameters."""
        _drop_replicas(self.model)

"""Compiled graph plans and the process-wide plan cache.

A :class:`GraphPlan` freezes everything a levelized GNN sweep needs for one
circuit *structure*: the forward/reverse :class:`EdgeBatch` schedules (both
DeepSeq's custom cut-graph variant and the baseline variant), their
:class:`SweepWindow` runs of levels, the one-hot feature matrix per dtype,
and the DFF copy indices.  Plans are cached in a
bounded process-wide LRU keyed by the netlist's stable content hash
(:meth:`repro.circuit.netlist.Netlist.fingerprint`), so every model
instance, pipeline and predictor in the process shares one compiled plan
per circuit structure — this replaces the fragile per-model ``id()``-keyed
batch cache that previously lived inside ``RecurrentDagGnn``.

Schedules are *normalized*: a node appears in a batch only if at least one
message reaches it at that level.  For the custom cut-graph schedules this
is a no-op (every scheduled node has edges); for the baseline schedules it
removes true sinks from otherwise non-empty reverse batches, which makes a
node's update history independent of which other circuits happen to share
its batch — the property that lets multi-circuit packing reproduce
single-circuit results exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.graph import CircuitGraph, EdgeBatch, edge_batches
from repro.circuit.netlist import Netlist
from repro.lru import FingerprintLRU

__all__ = [
    "GraphPlan",
    "ScheduleError",
    "SweepWindow",
    "baseline_batches",
    "plan_for",
    "fingerprint_of",
    "clear_plan_cache",
    "configure_plan_cache",
    "plan_cache_info",
    "PlanCacheInfo",
]


def fingerprint_of(graph: CircuitGraph) -> str:
    """Content hash of a circuit graph, memoized on its structure.

    ``CircuitGraph`` is an immutable view of the lowering it was built
    from, so the hash stays right even if the netlist is edited later.
    """
    return graph.structure.fingerprint()


def _normalize_batches(batches: list[EdgeBatch]) -> list[EdgeBatch]:
    """Drop nodes (and whole levels) that receive no messages."""
    out: list[EdgeBatch] = []
    for batch in batches:
        if batch.num_nodes == 0 or batch.num_edges == 0:
            continue
        present = np.unique(batch.dst_local)
        if present.size == batch.num_nodes:
            out.append(batch)
            continue
        out.append(
            EdgeBatch(
                nodes=batch.nodes[present],
                src=batch.src,
                dst_local=np.searchsorted(present, batch.dst_local).astype(np.int64),
            )
        )
    return out


class ScheduleError(ValueError):
    """A pass schedule the sweep cannot run: it writes one node at two
    levels, or a level's message destinations are unsorted.

    The one-buffer sweep (:func:`repro.models.base.propagate`) relies on
    every node being written at most once per pass: a level reads its own
    nodes' rows as their pass-start state, and its backward hands the
    state gradient back by rows.  The aggregator kernels reduce each
    node's messages as one contiguous ``reduceat`` segment, which needs
    ``dst_local`` in nondecreasing order (:meth:`EdgeBatch.dst_layout`).
    """


def _check_single_write(batches: list[EdgeBatch], direction: str) -> None:
    """Raise :class:`ScheduleError` naming the first node that appears in
    two batches (or twice in one batch) of ``batches``."""
    if not batches:
        return
    nodes = np.concatenate([b.nodes for b in batches])
    levels = np.repeat(np.arange(len(batches)), [b.num_nodes for b in batches])
    order = np.argsort(nodes, kind="stable")
    repeats = np.flatnonzero(nodes[order][1:] == nodes[order][:-1])
    if repeats.size:
        first, second = order[repeats[0]], order[repeats[0] + 1]
        raise ScheduleError(
            f"{direction} schedule writes node {nodes[first]} at levels "
            f"{levels[first]} and {levels[second]}; a pass may update each "
            "node once"
        )


def _check_sorted(batches: list[EdgeBatch], direction: str) -> None:
    """Raise :class:`ScheduleError` naming the first level whose message
    destinations are unsorted (no ``reduceat`` segment layout).

    Tests the order only: building every layout here would pin them on
    warmed packs that are never swept.
    """
    for k, batch in enumerate(batches):
        dst = batch.dst_local
        if np.any(dst[1:] < dst[:-1]):
            raise ScheduleError(
                f"{direction} schedule level {k} has unsorted message "
                "destinations; aggregator kernels need dst_local in "
                "nondecreasing order"
            )


@dataclass(frozen=True)
class SweepWindow:
    """A run of consecutive levels of one pass, swept under one prologue.

    The sweep computes every term that depends only on pass-start rows
    (the gather of the rows, the GRU's hidden gates, the attention's
    previous-state scores) once for all of ``nodes``, then runs the
    levels on row slices of those arrays.  Each entry of ``levels`` is
    ``(batch, nodes, src, dst_local, starts, lo, hi)``: the level's
    :class:`EdgeBatch` and its arrays, the start offset of every node's
    message segment (each node has at least one message) and the level's
    rows ``lo:hi`` of the window.
    """

    nodes: np.ndarray
    levels: tuple[tuple, ...]


def _windows(batches: list[EdgeBatch], max_rows: int) -> tuple[SweepWindow, ...]:
    """Cut a checked, normalized schedule into windows of consecutive
    levels of at most ``max_rows`` rows (a larger level is a window of its
    own).  Every level's destinations are sorted and every node has a
    message, so each level has one segment start per node."""
    windows = []
    first = 0
    while first < len(batches):
        levels: list[tuple] = []
        lo = 0
        for batch in batches[first:]:
            if lo and lo + batch.num_nodes > max_rows:
                break
            hi = lo + batch.num_nodes
            starts = batch.dst_layout()[1]
            levels.append((batch, batch.nodes, batch.src, batch.dst_local, starts, lo, hi))
            lo = hi
        nodes = np.concatenate([level[1] for level in levels])
        windows.append(SweepWindow(nodes, tuple(levels)))
        first += len(levels)
    return tuple(windows)


def baseline_batches(graph: CircuitGraph) -> tuple[list[EdgeBatch], list[EdgeBatch]]:
    """Level batches for the *simple* propagation of the baseline models.

    Unlike DeepSeq's customized scheme, the baselines treat flip-flops as
    ordinary nodes: the forward pass updates DFFs from their data edge and
    the reverse pass lets gates hear from the DFFs they feed.  (Cycles are
    still broken by levelization — a DFF sits at level 1 and simply reads
    its predecessor's state from the previous sweep.)
    """
    forward: list[EdgeBatch] = list(graph.forward_batches)
    # Insert DFF updates as a dedicated level-1 batch (they are pseudo-PIs
    # in the cut levelization, so no comb batch contains them).
    if graph.dff_ids.size:
        dff_batch = EdgeBatch(
            nodes=graph.dff_ids.copy(),
            src=graph.dff_src.copy(),
            dst_local=np.arange(graph.dff_ids.size, dtype=np.int64),
        )
        forward = [dff_batch] + forward
    # Re-derive successor edges *including* DFF consumers.
    _, fanouts = graph.structure.adjacency(cut=False)
    reverse = edge_batches([b.nodes for b in graph.reverse_batches], *fanouts)
    return forward, reverse


class GraphPlan:
    """Everything one levelized sweep needs, compiled once per structure.

    Attributes:
        graph: the compiled :class:`CircuitGraph` (node ids, DFF copy map).
        key: the netlist content hash this plan is cached under.
    """

    __slots__ = (
        "graph", "key", "_schedules", "_windows", "_features", "_feature_rows"
    )

    def __init__(self, graph: CircuitGraph, key: str) -> None:
        self.graph = graph
        self.key = key
        self._schedules: dict[bool, tuple[list[EdgeBatch], list[EdgeBatch]]] = {}
        self._windows: dict[
            tuple[bool, int],
            tuple[tuple[SweepWindow, ...], tuple[SweepWindow, ...]],
        ] = {}
        self._features: dict[np.dtype, np.ndarray] = {}
        self._feature_rows: dict[
            tuple[bool, np.dtype],
            tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]],
        ] = {}

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def schedule(self, custom: bool = True) -> tuple[list[EdgeBatch], list[EdgeBatch]]:
        """Normalized (forward, reverse) EdgeBatch schedules.

        ``custom=True`` gives DeepSeq's cut-graph schedule; ``False`` the
        baseline schedule with DFF updates and DFF reverse messages.  Each
        pass is checked once, when first built, to write every node at most
        once and to emit every level's destinations sorted
        (:class:`ScheduleError` otherwise).
        """
        entry = self._schedules.get(custom)
        if entry is None:
            if custom:
                raw = (list(self.graph.forward_batches), list(self.graph.reverse_batches))
            else:
                raw = baseline_batches(self.graph)
            entry = (_normalize_batches(raw[0]), _normalize_batches(raw[1]))
            for batches, direction in zip(entry, ("forward", "reverse")):
                _check_single_write(batches, direction)
                _check_sorted(batches, direction)
            self._schedules[custom] = entry
        return entry

    def windows(self, custom: bool, max_rows: int):
        """:meth:`schedule`'s (forward, reverse) passes cut into
        :class:`SweepWindow` runs of at most ``max_rows`` rows (cached per
        ``max_rows``)."""
        key = (bool(custom), int(max_rows))
        cached = self._windows.get(key)
        if cached is None:
            fwd, rev = self.schedule(custom)
            cached = (_windows(fwd, max_rows), _windows(rev, max_rows))
            self._windows[key] = cached
        return cached

    def features(self, dtype=np.float64) -> np.ndarray:
        """The (N, 4) one-hot feature matrix cast to ``dtype`` (cached)."""
        dt = np.dtype(dtype)
        feats = self._features.get(dt)
        if feats is None:
            base = self.graph.features
            feats = base if base.dtype == dt else base.astype(dt)
            self._features[dt] = feats
        return feats

    def resident_bytes(self, custom: bool = True, dtype=np.float64) -> int:
        """Bytes of the feature rows a sweep reads, per scheduled node.

        Each scheduled level reads a ``(batch_nodes, 4)`` slice of the
        one-hot feature matrix; this sums those slices over both sweep
        directions (what :meth:`feature_rows` would keep alive) — the
        size measure ``BatchedPredictor(memory_budget=...)`` sums over a
        pack's members and holds within ``plan_bytes``.
        """
        itemsize = np.dtype(dtype).itemsize
        fwd, rev = self.schedule(custom)
        width = self.graph.features.shape[1]
        return sum(b.nodes.size * width * itemsize for b in fwd + rev)

    def feature_rows(self, custom: bool = True, dtype=np.float64):
        """Per-batch gathers of the feature matrix, aligned with
        :meth:`schedule`'s (forward, reverse) batches (cached), for callers
        that walk a schedule level by level.  The sweep gathers a window's
        rows straight from :meth:`features` instead, once per window.
        """
        key = (bool(custom), np.dtype(dtype))
        cached = self._feature_rows.get(key)
        if cached is None:
            feats = self.features(dtype)
            fwd, rev = self.schedule(custom)
            cached = (
                tuple(feats[b.nodes] for b in fwd),
                tuple(feats[b.nodes] for b in rev),
            )
            self._feature_rows[key] = cached
        return cached

    def __repr__(self) -> str:
        return f"GraphPlan({self.graph!r}, key={self.key[:12]})"


# ----------------------------------------------------------------------
# process-wide LRU cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanCacheInfo:
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int


_CACHE = FingerprintLRU(128, PlanCacheInfo, "plan cache")


def plan_for(circuit: CircuitGraph | Netlist, cache: bool = True) -> GraphPlan:
    """The compiled plan for ``circuit``, from the shared LRU when possible.

    Accepts either a :class:`CircuitGraph` (wrapped without rebuilding) or
    a raw :class:`Netlist` (compiled to a graph on a cache miss).  Two
    structurally identical circuits share one plan regardless of node
    names, so the returned plan's ``graph`` may originate from a different
    — structurally equal — netlist object than the argument.
    """
    if isinstance(circuit, CircuitGraph):
        key = fingerprint_of(circuit)
        graph: CircuitGraph | None = circuit
    else:
        key = circuit.fingerprint()
        graph = None
    if cache:
        plan = _CACHE.get(key)
        if plan is not None:
            return plan
    if graph is None:
        graph = CircuitGraph(circuit)  # type: ignore[arg-type]
    plan = GraphPlan(graph, key)
    return _CACHE.insert(key, plan) if cache else plan


def configure_plan_cache(maxsize: int) -> None:
    """Bound the shared plan cache to ``maxsize`` entries (evicts LRU-first)."""
    _CACHE.configure(maxsize)


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    _CACHE.clear()


def plan_cache_info() -> PlanCacheInfo:
    """Current cache statistics (hits/misses/evictions/size/maxsize)."""
    return _CACHE.info()

"""The learning-graph view of a sequential AIG.

:class:`CircuitGraph` freezes an AIG netlist into the numpy arrays the GNN
models and the logic simulator consume:

* node features (one-hot gate type, paper: 4-d);
* compact fanin arrays (AIGs have <= 2 fanins per node);
* forward/reverse level batches of the cut graph (DFF fan-in edges removed);
* per-batch flat edge lists for vectorized attention aggregation, in both
  the forward direction (messages from predecessors) and the reverse
  direction (messages from successors);
* the DFF update map used by step 4 of the customized propagation (copy the
  representation of each DFF's data predecessor onto the DFF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import AIG_TYPES, GateType
from repro.circuit.levelize import levelize
from repro.circuit.netlist import (
    Netlist,
    NetlistError,
    Structure,
    _frozen,
    split_rows,
    structure_of,
)

__all__ = ["EdgeBatch", "CircuitGraph", "edge_batches", "check_learnable"]


@dataclass
class EdgeBatch:
    """Flat edge list for one level batch of the GNN propagation.

    ``nodes`` are the gate ids updated by this batch.  ``src`` holds, for
    every incoming message, the global id of the neighbour it comes from;
    ``dst_local`` maps the message to the *position* of its target inside
    ``nodes`` (segment id for segment-softmax / segment-sum).
    """

    nodes: np.ndarray
    src: np.ndarray
    dst_local: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def dst_layout(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached (nonempty segments, start offsets) of ``dst_local``.

        Level batches emit destinations in nondecreasing order, which lets
        segment reductions run as contiguous ``reduceat`` slices instead of
        scattered ``np.<op>.at`` updates; the layout is static per batch,
        so it is computed once.  ``None`` when ``dst_local`` is unsorted.
        """
        cached = getattr(self, "_dst_layout", False)
        if cached is False:
            # Deferred import: repro.nn owns the canonical layout helper,
            # and the circuit layer must stay importable without it at
            # module-load time.
            from repro.nn.tensor import sorted_segment_layout

            cached = sorted_segment_layout(self.dst_local, self.num_nodes)
            self._dst_layout = cached
        return cached


def check_learnable(structure: Structure) -> None:
    """Raise :class:`NetlistError` unless a :class:`CircuitGraph` can be
    built: a sequential AIG with an acyclic cut graph."""
    if not structure.is_aig():
        raise NetlistError(
            "CircuitGraph requires an AIG netlist; lower with "
            "repro.circuit.aig.to_aig first"
        )
    structure.levels()


def edge_batches(
    groups: list[np.ndarray], ptr: np.ndarray, idx: np.ndarray
) -> list[EdgeBatch]:
    """One :class:`EdgeBatch` per node group: every node's CSR row
    ``(ptr, idx)`` as its messages, nodes and rows in the given order.
    ``src`` and ``dst_local`` are read-only views of two shared arrays."""
    if not groups:
        return []
    sizes = np.array([g.size for g in groups])
    nodes = np.concatenate(groups)
    first = ptr[nodes]
    counts = ptr[nodes + 1] - first
    owner = np.repeat(np.arange(nodes.size), counts)  # edge -> position in nodes
    pin = np.arange(owner.size) - (counts.cumsum() - counts)[owner]
    src = idx[first[owner] + pin]
    group = np.repeat(np.arange(sizes.size), sizes)[owner]
    dst_local = owner - (sizes.cumsum() - sizes)[group]
    edges = np.bincount(group, minlength=sizes.size)
    return [
        EdgeBatch(members, s, d)
        for members, s, d in zip(
            groups,
            split_rows(_frozen(src), edges),
            split_rows(_frozen(dst_local), edges),
        )
    ]


def _forward_batches(structure: Structure) -> tuple[EdgeBatch, ...]:
    groups = levelize(structure).comb_forward
    return tuple(edge_batches(groups, structure.fanin_ptr, structure.fanin_idx))


def _reverse_batches(structure: Structure) -> tuple[EdgeBatch, ...]:
    # In the cut graph a DFF's fan-in edge is removed, so its data
    # predecessor must not receive a reverse message from the DFF.
    _, cut_fanouts = structure.adjacency(cut=True)
    return tuple(edge_batches(levelize(structure).comb_reverse, *cut_fanouts))


class CircuitGraph:
    """Immutable array view of a sequential AIG used by models & simulator.

    Args:
        netlist: a sequential AIG (``is_aig()`` true) — a netlist, or the
            bare :class:`~repro.circuit.netlist.Structure` of one (a
            pack's union has no netlist).

    Attributes:
        netlist: the source netlist (kept for names/POs); ``None`` when
            built from a bare structure.
        structure: the lowering every array here is derived from.
        num_nodes: node count.
        type_index: (N,) int8 — index into ``AIG_TYPES`` (0 PI, 1 AND,
            2 NOT, 3 DFF).
        features: (N, 4) float64 one-hot node features.
        fanin0 / fanin1: (N,) int32 fanin ids; -1 when absent.  DFFs store
            their data predecessor in ``fanin0`` even though the learning
            graph cuts that edge.
        level / reverse_level: logic levels of the cut graph.
        forward_batches: per forward level, an :class:`EdgeBatch` of the
            combinational gates updated at that level with their
            predecessor edge lists.
        reverse_batches: per reverse level, an :class:`EdgeBatch` with
            *successor* edge lists (reverse propagation).  Both are built
            on first read and kept on the structure: every graph over it
            reads a new list of the same batches, whose arrays are
            read-only.  A graph that is never swept builds none.
        pi_ids / and_ids / not_ids / dff_ids: node ids per type.
        dff_src: (num_dffs,) data predecessor per DFF (step-4 copy map).
    """

    def __init__(self, netlist: Netlist | Structure) -> None:
        structure = structure_of(netlist)
        check_learnable(structure)
        lv = levelize(structure)
        self.netlist = None if netlist is structure else netlist
        self.structure = structure
        n = structure.num_nodes
        self.num_nodes = n

        self.type_index = structure.type_code
        self.features = np.zeros((n, len(AIG_TYPES)), dtype=np.float64)
        self.features[np.arange(n), self.type_index] = 1.0

        first = structure.fanin_ptr[:-1]
        arity = structure.arity
        self.fanin0 = np.full(n, -1, dtype=np.int32)
        self.fanin1 = np.full(n, -1, dtype=np.int32)
        self.fanin0[arity >= 1] = structure.fanin_idx[first[arity >= 1]]
        self.fanin1[arity == 2] = structure.fanin_idx[first[arity == 2] + 1]

        self.pi_ids = structure.ids(GateType.PI)
        self.dff_ids = structure.ids(GateType.DFF)
        self.and_ids = structure.ids(GateType.AND)
        self.not_ids = structure.ids(GateType.NOT)
        self.po_ids = structure.pos
        self.dff_src = self.fanin0[self.dff_ids].astype(np.int64)

        self.level = lv.level
        self.reverse_level = lv.reverse_level
        self.num_levels = lv.num_levels

    # ------------------------------------------------------------------
    @property
    def forward_batches(self) -> list[EdgeBatch]:
        return list(self.structure.memo("forward_batches", _forward_batches))

    @property
    def reverse_batches(self) -> list[EdgeBatch]:
        return list(self.structure.memo("reverse_batches", _reverse_batches))

    @property
    def num_pis(self) -> int:
        return int(self.pi_ids.size)

    @property
    def num_dffs(self) -> int:
        return int(self.dff_ids.size)

    @property
    def state_ids(self) -> np.ndarray:
        """Nodes holding workload-independent state at cycle boundaries
        (the DFFs) — the circuit's state vector."""
        return self.dff_ids

    def __repr__(self) -> str:
        return (
            f"CircuitGraph({getattr(self.netlist, 'name', 'union')!r}, "
            f"nodes={self.num_nodes}, "
            f"pis={self.num_pis}, dffs={self.num_dffs}, "
            f"levels={self.num_levels})"
        )

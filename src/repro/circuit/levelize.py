"""Levelization and topological ordering of sequential netlists.

Step 1 of DeepSeq's customized propagation removes every DFF's incoming edge,
turning flip-flops into pseudo primary inputs and the cyclic circuit graph
into a DAG (paper Fig. 2).  All ordering utilities here operate on that *cut
graph*:

* sources: PIs at logic level 0, DFFs at logic level 1 (the paper "move[s]
  FFs to logic level 1");
* combinational gates: ``1 + max(level of fanins)``;
* reverse levels: the same construction on the edge-reversed cut graph,
  giving the batches for the reverse propagation layer.

Levels double as *topological batches* ([16]): all gates of one level have
no mutual dependencies and are processed as one vectorized batch both in the
logic simulator and in the GNN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Netlist, Structure, kahn, split_rows, structure_of

__all__ = ["cut_fanins", "cut_topo_order", "Levelization", "levelize"]


def cut_fanins(nl: Netlist) -> list[tuple[int, ...]]:
    """Fanin lists of the cut graph (DFF incoming edges removed)."""
    (ptr, idx), _ = nl.structure().adjacency(cut=True)
    return [tuple(row.tolist()) for row in split_rows(idx, np.diff(ptr))]


def cut_topo_order(nl: Netlist, smallest_first: bool) -> list[int]:
    """Kahn's order over the cut graph for the passes that renumber nodes,
    which also fix *which* ready node goes next: the one readied last
    (``to_aig``, ``strash``) or always the smallest id (the AIGER writer)."""
    structure = nl.structure()
    structure.levels()  # acyclic, or NetlistError
    fanins, fanouts = structure.adjacency(cut=True)
    pending = np.diff(fanins[0]).tolist()
    return kahn(pending, fanouts, [0] * len(pending), smallest_first)


@dataclass
class Levelization:
    """Forward and reverse levelization of a sequential netlist's cut graph.

    Attributes:
        level: forward logic level per node (PI=0, DFF=1, gates >= 1).
        reverse_level: level in the edge-reversed cut graph (sinks=0).
        forward_order: one ``np.ndarray`` of node ids per forward level,
            ascending; level arrays include *all* nodes at that level
            (sources included, so ``forward_order[0]`` is the PIs).
        reverse_order: per reverse level, ascending (entry 0 = sinks).
        comb_forward: forward batches restricted to combinational gates
            (AND/NOT and extended-library gates) — the nodes a forward GNN
            layer actually updates.
        comb_reverse: reverse batches restricted to combinational gates.
    """

    level: np.ndarray
    reverse_level: np.ndarray
    forward_order: list[np.ndarray]
    reverse_order: list[np.ndarray]
    comb_forward: list[np.ndarray]
    comb_reverse: list[np.ndarray]

    @property
    def num_levels(self) -> int:
        return len(self.forward_order)

    @property
    def max_level(self) -> int:
        return int(self.level.max()) if self.level.size else 0


def levelize(nl: Netlist | Structure) -> Levelization:
    """The full forward/reverse levelization of ``nl``'s cut graph, computed
    once per lowering and shared read-only by every consumer.  Raises
    :class:`~repro.circuit.netlist.NetlistError` on a combinational cycle."""
    return structure_of(nl).memo("levelization", _levelization)


def _levelization(structure: Structure) -> Levelization:
    level, reverse_level = structure.levels()
    everything = np.arange(structure.num_nodes, dtype=np.int64)
    comb = structure.comb_ids
    return Levelization(
        level=level,
        reverse_level=reverse_level,
        forward_order=_group_by_level(everything, level, dense=True),
        reverse_order=_group_by_level(everything, reverse_level, dense=True),
        comb_forward=_group_by_level(comb, level, dense=False),
        comb_reverse=_group_by_level(comb, reverse_level, dense=False),
    )


def _group_by_level(
    ids: np.ndarray, level: np.ndarray, dense: bool
) -> list[np.ndarray]:
    """``ids`` split by level, ascending within a level.  ``dense`` keeps
    the empty levels (possible when DFFs occupy level 1 exclusively and
    level 0 has no PIs, etc.) so the list index is the level."""
    if not ids.size:
        return []
    keys = level[ids]
    order = ids[np.argsort(keys, kind="stable")]
    order.setflags(write=False)
    counts = np.bincount(keys)
    return split_rows(order, counts if dense else counts[counts > 0])

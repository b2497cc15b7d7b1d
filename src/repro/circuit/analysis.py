"""Structural netlist analysis.

The paper repeatedly ties estimation error to two structures — *reconvergent
fanout* (breaks the independence assumption of probabilistic methods) and
*sequential feedback loops* (breaks DAG-GNN propagation) — without tooling
to find them.  This module provides that tooling:

* :func:`reconvergent_nodes` — gates whose immediate fanins share a
  transitive source (the paper's "reconvergence fanouts");
* :func:`sequential_sccs` — strongly connected components through DFFs
  (the "cyclic FFs" of Section V-A);
* :func:`logic_depth_histogram`, :func:`fanout_histogram` — shape profiles
  used to compare synthetic families against published benchmark suites;
* :func:`feedback_register_count` — how many DFFs sit on a cycle;
* :func:`structural_profile` — one dataclass bundling all of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist

__all__ = [
    "reconvergent_nodes",
    "sequential_sccs",
    "feedback_register_count",
    "logic_depth_histogram",
    "fanout_histogram",
    "StructuralProfile",
    "structural_profile",
]


def reconvergent_nodes(nl: Netlist, max_sources: int | None = None) -> list[int]:
    """Gates whose fanin cones reconverge.

    A node v is reconvergent when two of its immediate fanins have
    overlapping transitive support in the cut graph (DFF fan-in edges
    removed).  Implemented with per-node support bitsets over sources
    (PIs + DFFs), propagated in level order — O(edges x words).

    Args:
        nl: the netlist.
        max_sources: cap on tracked sources (support beyond the cap is
            ignored); None tracks everything.
    """
    lv = levelize(nl)
    sources = np.setdiff1d(np.arange(len(nl)), nl.structure().comb_ids).tolist()
    if max_sources is not None:
        sources = sources[:max_sources]
    index = {s: k for k, s in enumerate(sources)}
    words = max(1, -(-len(sources) // 64))
    support = np.zeros((len(nl), words), dtype=np.uint64)
    for s, k in index.items():
        support[s, k // 64] |= np.uint64(1) << np.uint64(k % 64)

    out: list[int] = []
    for batch in lv.comb_forward:
        for v in batch:
            v = int(v)
            fanins = nl.fanins(v)
            acc = np.zeros(words, dtype=np.uint64)
            overlap = False
            for f in fanins:
                both = acc & support[f]
                if both.any():
                    overlap = True
                acc |= support[f]
            support[v] = acc
            if overlap and len(fanins) >= 2:
                out.append(v)
    return out


def sequential_sccs(nl: Netlist) -> list[list[int]]:
    """Strongly connected components of the *full* (cyclic) circuit graph.

    Only non-trivial SCCs (>= 2 nodes, or a self-loop) are returned; each
    corresponds to a sequential feedback loop through one or more DFFs.
    Iterative Tarjan so deep circuits cannot overflow the Python stack.
    """
    n = len(nl)
    fanouts = nl.fanouts()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succs = fanouts[v]
            while pi < len(succs):
                w = succs[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in nl.fanins(v):
                    sccs.append(sorted(comp))
    return sccs


def feedback_register_count(nl: Netlist) -> int:
    """Number of DFFs lying on at least one sequential cycle."""
    on_cycle = {v for scc in sequential_sccs(nl) for v in scc}
    return sum(1 for d in nl.dffs if d in on_cycle)


def logic_depth_histogram(nl: Netlist) -> dict[int, int]:
    """Node count per logic level of the cut graph."""
    counts = np.bincount(levelize(nl).level)
    return {level: int(c) for level, c in enumerate(counts) if c}


def fanout_histogram(nl: Netlist) -> dict[int, int]:
    """Node count per fanout degree."""
    fanout_ptr = nl.structure().adjacency(cut=False)[1][0]
    counts = np.bincount(np.diff(fanout_ptr))
    return {degree: int(c) for degree, c in enumerate(counts) if c}


@dataclass(frozen=True)
class StructuralProfile:
    """Bundle of the structural metrics the paper's narrative leans on."""

    nodes: int
    pis: int
    dffs: int
    pos: int
    max_depth: int
    reconvergent_count: int
    reconvergent_fraction: float
    sequential_loops: int
    feedback_dffs: int
    max_fanout: int

    def row(self) -> str:
        return (
            f"n={self.nodes} depth={self.max_depth} "
            f"reconv={self.reconvergent_fraction:.1%} "
            f"loops={self.sequential_loops} fb_dffs={self.feedback_dffs}"
        )


def structural_profile(nl: Netlist) -> StructuralProfile:
    """Compute the full structural profile of a netlist."""
    lv = levelize(nl)
    reconv = reconvergent_nodes(nl)
    sccs = sequential_sccs(nl)
    structure = nl.structure()
    fanout_ptr = structure.adjacency(cut=False)[1][0]
    return StructuralProfile(
        nodes=len(nl),
        pis=len(nl.pis),
        dffs=len(nl.dffs),
        pos=len(nl.pos),
        max_depth=int(lv.level.max()) if len(nl) else 0,
        reconvergent_count=len(reconv),
        reconvergent_fraction=len(reconv) / max(1, structure.comb_ids.size),
        sequential_loops=len(sccs),
        feedback_dffs=feedback_register_count(nl),
        max_fanout=int(np.diff(fanout_ptr).max()),
    )

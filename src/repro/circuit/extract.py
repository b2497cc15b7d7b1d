"""Sub-circuit extraction.

The paper's training corpus is built by cutting 150–300-node sub-circuits
out of larger benchmark designs (Section III).  :func:`extract_subcircuit`
implements the standard cone-based cut: grow a region from a seed node by
breadth-first traversal over fanin *and* fanout edges (so sequential loops
and reconvergent structures stay intact) until a node budget is met, then
materialize the induced netlist with boundary signals promoted to fresh PIs
(see :meth:`repro.circuit.netlist.Netlist.subcircuit`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist

__all__ = [
    "extract_subcircuit",
    "extract_dataset",
]


def extract_subcircuit(
    nl: Netlist,
    seed_node: int,
    target_nodes: int,
    rng: np.random.Generator | None = None,
    fanin_bias: float = 0.7,
) -> Netlist:
    """Cut a region of roughly ``target_nodes`` nodes around ``seed_node``.

    Traversal alternates between fanin and fanout expansion with probability
    ``fanin_bias`` toward fanins (input cones carry the logic that determines
    the seed's behaviour).  DFFs pull in their data predecessor eagerly so
    extracted circuits keep their sequential loops whenever the loop fits in
    the budget.
    """
    rng = rng or np.random.default_rng(0)
    fanouts = nl.fanouts()
    keep: set[int] = {seed_node}
    frontier: deque[int] = deque([seed_node])
    while frontier and len(keep) < target_nodes:
        node = frontier.popleft()
        fanin_first = rng.random() < fanin_bias
        neighbour_groups = (
            (nl.fanins(node), fanouts[node])
            if fanin_first
            else (fanouts[node], nl.fanins(node))
        )
        for group in neighbour_groups:
            for nb in group:
                if nb not in keep and len(keep) < target_nodes:
                    keep.add(nb)
                    frontier.append(nb)
        # Keep sequential loops closed: a kept DFF without its source PI-fies
        # into a pseudo input, losing the temporal correlation we train on.
        if nl.gate_type(node) is GateType.DFF and len(keep) < target_nodes:
            (src,) = nl.fanins(node)
            if src not in keep:
                keep.add(src)
                frontier.append(src)
    return nl.subcircuit(keep, name=f"{nl.name}_x{seed_node}")


def extract_dataset(
    nl: Netlist,
    count: int,
    size_range: tuple[int, int],
    seed: int = 0,
) -> list[Netlist]:
    """Extract ``count`` sub-circuits with sizes uniform in ``size_range``."""
    rng = np.random.default_rng(seed)
    candidates = [
        n for n in nl.nodes() if nl.gate_type(n) is not GateType.PI
    ]
    if not candidates:
        raise ValueError("netlist has no gates to seed extraction from")
    out: list[Netlist] = []
    for k in range(count):
        seed_node = int(rng.choice(candidates))
        target = int(rng.integers(size_range[0], size_range[1] + 1))
        sub = extract_subcircuit(nl, seed_node, target, rng)
        sub.name = f"{nl.name}_sub{k}"
        out.append(sub)
    return out


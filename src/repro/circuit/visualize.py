"""Graphviz DOT export for netlists and learning graphs.

Emits plain DOT text (no graphviz dependency) so small circuits can be
rendered with any dot tool or online viewer.  Two views:

* :func:`to_dot` — the raw netlist: gate-shaped nodes, sequential edges
  dashed, POs double-circled;
* :func:`levels_to_dot` — the *learning* view: nodes ranked by logic level
  of the cut graph, DFF fan-in edges drawn as dashed back-edges, making
  DeepSeq's levelized propagation order visible on paper.
"""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist

__all__ = ["to_dot", "levels_to_dot"]

_SHAPES: dict[GateType, str] = {
    GateType.PI: "invtriangle",
    GateType.DFF: "box",
    GateType.AND: "ellipse",
    GateType.NAND: "ellipse",
    GateType.OR: "ellipse",
    GateType.NOR: "ellipse",
    GateType.XOR: "ellipse",
    GateType.XNOR: "ellipse",
    GateType.NOT: "circle",
    GateType.BUF: "circle",
    GateType.MUX: "trapezium",
    GateType.CONST0: "plaintext",
    GateType.CONST1: "plaintext",
}


def _node_attrs(nl: Netlist, node: int) -> str:
    gt = nl.gate_type(node)
    label = f"{nl.node_name(node)}\\n{gt.value}"
    attrs = [f'label="{label}"', f"shape={_SHAPES.get(gt, 'ellipse')}"]
    if node in nl.pos:
        attrs.append("peripheries=2")
    if gt is GateType.DFF:
        attrs.append("style=filled")
        attrs.append('fillcolor="#cfe2ff"')
    elif gt is GateType.PI:
        attrs.append("style=filled")
        attrs.append('fillcolor="#d9f2d9"')
    return ", ".join(attrs)


def to_dot(nl: Netlist, graph_name: str | None = None) -> str:
    """Serialize the netlist as a DOT digraph."""
    name = (graph_name or nl.name).replace('"', "")
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    for node in nl.nodes():
        lines.append(f"  n{node} [{_node_attrs(nl, node)}];")
    for node in nl.nodes():
        seq = nl.gate_type(node) is GateType.DFF
        style = ' [style=dashed, color="#3366cc"]' if seq else ""
        for f in nl.fanins(node):
            lines.append(f"  n{f} -> n{node}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def levels_to_dot(nl: Netlist, graph_name: str | None = None) -> str:
    """DOT digraph with nodes ranked by cut-graph logic level.

    Each level becomes a ``rank=same`` cluster, so the rendering lays the
    circuit out exactly in the order DeepSeq's forward pass visits it;
    the cut (sequential) edges appear as dashed constraint-free arcs.
    """
    name = (graph_name or nl.name).replace('"', "")
    lv = levelize(nl)
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    for node in nl.nodes():
        lines.append(f"  n{node} [{_node_attrs(nl, node)}];")
    for members in lv.forward_order:
        if members.size:
            ranked = "; ".join(f"n{node}" for node in members)
            lines.append("  { rank=same; " + ranked + "; }")
    for node in nl.nodes():
        is_dff = nl.gate_type(node) is GateType.DFF
        for f in nl.fanins(node):
            if is_dff:
                lines.append(
                    f"  n{f} -> n{node} "
                    '[style=dashed, color="#3366cc", constraint=false];'
                )
            else:
                lines.append(f"  n{f} -> n{node};")
    lines.append("}")
    return "\n".join(lines) + "\n"

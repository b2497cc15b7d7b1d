"""The per-node reference lowerings: the oracles the array builders are held to.

:func:`repro.circuit.aig.to_aig` lowers whole ``(gate type, arity)`` groups
over :class:`~repro.circuit.netlist.Structure` arrays, and
:func:`repro.circuit.compose.stitched_union` concatenates member structures.
This module keeps the node-by-node originals beside the tests that compare
them: :func:`to_aig` emits one row at a time through a builder whose helper
methods are the decomposition rules, numbering generated names as it goes,
and :func:`stitched_union` replays ``add_gate`` / ``set_fanins`` per member
node.  Neither shares lowering code with ``src/``, so every differential
test compares two independent implementations.
"""

from __future__ import annotations

from repro.circuit.aig import AigMapping
from repro.circuit.compose import Stitch, UnionMapping
from repro.circuit.gates import GateType
from repro.circuit.levelize import cut_topo_order
from repro.circuit.netlist import Netlist, NetlistError, Structure

_SHELLS = (GateType.PI, GateType.DFF)


def to_aig(nl: Netlist, name: str | None = None) -> AigMapping:
    """The lowering of :func:`repro.circuit.aig.to_aig`, one node at a time."""
    b = _Builder(nl)
    for node in cut_topo_order(nl, smallest_first=False):
        gt = nl.gate_type(node)
        if gt not in _SHELLS:
            fanins = [b.mapping[f] for f in nl.fanins(node)]
            b.mapping[node] = _lower_gate(b, gt, fanins, nl.node_name(node))
    lowered = b.finish(nl, name or f"{nl.name}_aig")
    if not lowered.aig.is_aig():
        raise NetlistError("internal error: lowering left non-AIG nodes")
    return lowered


class _Builder:
    """The output netlist as one ``(type, fanins, name)`` row per node;
    PIs and DFFs come first, DFF rows are wired last."""

    _const0: int | None = None
    _counter = 0

    def __init__(self, nl: Netlist) -> None:
        self.types: list[GateType] = []
        self.fanins: list[tuple[int, ...]] = []
        self.names: list[str] = []
        self.mapping = {
            node: self.add(nl.gate_type(node), (), nl.node_name(node))
            for node in nl.nodes()
            if nl.gate_type(node) in _SHELLS
        }

    def add(self, gt: GateType, fanins: tuple[int, ...], name: str) -> int:
        self.types.append(gt)
        self.fanins.append(fanins)
        self.names.append(name)
        return len(self.types) - 1

    def finish(self, nl: Netlist, name: str) -> AigMapping:
        for node in nl.dffs:
            self.fanins[self.mapping[node]] = (self.mapping[nl.fanins(node)[0]],)
        pos = dict.fromkeys(self.mapping[po] for po in nl.pos)
        out = Netlist.from_structure(
            Structure.from_rows(self.types, self.fanins, list(pos)), self.names, name
        )
        out.validate()
        return AigMapping(aig=out, fanout_of=self.mapping)

    def fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}__aig{self._counter}"

    def not_(self, a: int, name: str | None = None) -> int:
        return self.add(GateType.NOT, (a,), name or self.fresh("inv"))

    def and_(self, a: int, b: int, name: str | None = None) -> int:
        return self.add(GateType.AND, (a, b), name or self.fresh("and"))

    def or_(self, a: int, b: int, name: str | None = None) -> int:
        return self.not_(self.and_(self.not_(a), self.not_(b)), name)

    def xor_(self, a: int, b: int, name: str | None = None) -> int:
        t1 = self.and_(a, self.not_(b))
        t2 = self.and_(self.not_(a), b)
        return self.or_(t1, t2, name)

    def const0(self, name: str | None = None) -> int:
        if self._const0 is None:
            src = next(
                (i for i, gt in enumerate(self.types) if gt is GateType.PI), None
            )
            if src is None:
                src = self.add(GateType.PI, (), self.fresh("tie"))
            self._const0 = self.and_(src, self.not_(src), self.fresh("const0"))
        if name is None:
            return self._const0
        return self.not_(self.not_(self._const0), name)


def _lower_gate(b: _Builder, gt: GateType, fanins: list[int], name: str) -> int:
    if gt is GateType.NOT:
        return b.not_(fanins[0], name)
    if gt is GateType.BUF:
        return b.not_(b.not_(fanins[0]), name)
    if gt is GateType.AND:
        return _tree(b.and_, fanins, name)
    if gt is GateType.OR:
        return _tree(b.or_, fanins, name)
    if gt is GateType.NAND:
        return b.not_(_tree(b.and_, fanins, None), name)
    if gt is GateType.NOR:
        return b.not_(_tree(b.or_, fanins, None), name)
    if gt is GateType.XOR:
        return _tree(b.xor_, fanins, name)
    if gt is GateType.XNOR:
        return b.not_(_tree(b.xor_, fanins, None), name)
    if gt is GateType.MUX:
        sel, a, f1 = fanins
        return b.or_(b.and_(a, b.not_(sel)), b.and_(f1, sel), name)
    if gt is GateType.CONST0:
        return b.const0(name)
    if gt is GateType.CONST1:
        return b.not_(b.const0(), name)
    raise NetlistError(f"cannot lower gate type {gt}")


def _tree(op, fanins: list[int], name: str | None) -> int:
    layer = list(fanins)
    while len(layer) > 2:
        layer = [
            op(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return op(layer[0], layer[1], name)


def stitched_union(
    netlists: list[Netlist], stitches: list[Stitch], name: str = "stitched"
) -> UnionMapping:
    """The union of :func:`repro.circuit.compose.stitched_union`, replayed
    node by node (stitches already checked)."""
    stitched = {(s.dst, s.pi): (s.src, s.src_node) for s in stitches}
    union = Netlist(name)
    offsets: list[int] = []
    for k, nl in enumerate(netlists):
        offset = len(union)
        offsets.append(offset)
        for node in nl.nodes():
            gt = GateType.BUF if (k, node) in stitched else nl.gate_type(node)
            union.add_gate(gt, (), f"c{k}_{nl.node_name(node)}")
        for node in nl.nodes():
            fanins = nl.fanins(node)
            if fanins:
                union.set_fanins(offset + node, [offset + f for f in fanins])
        for po in nl.pos:
            union.add_po(offset + po)
    for (dst, pi), (src, src_node) in stitched.items():
        union.set_fanins(offsets[dst] + pi, [offsets[src] + src_node])
    union.validate()
    return UnionMapping(sizes=tuple(len(nl) for nl in netlists), union=union)

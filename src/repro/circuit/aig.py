"""Lowering arbitrary gate libraries to sequential AIG form.

The paper pre-processes every circuit so its combinational part contains only
2-input AND gates and inverters (Section III), and — for inference on test
circuits with richer libraries — "decompose[s] each gate in [the] test
circuit into a combination of AND gates and NOT gates without any
optimization", with "the fanout gate in the resulting combination [having]
the same switching activity as the original gate" (Section V-A2).

:func:`to_aig` implements exactly that: a structural, optimization-free
rewrite.  The returned :class:`AigMapping` records, for every original node,
the AIG node carrying the same signal, so probabilities measured on the AIG
can be read back onto the original netlist ("we only record probabilities of
the fanout gates in all converted combinations").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.gates import GateType
from repro.circuit.levelize import cut_topo_order
from repro.circuit.netlist import Netlist, NetlistError, Structure

__all__ = ["AigMapping", "to_aig", "strash"]


@dataclass
class AigMapping:
    """Correspondence between an original netlist and its AIG lowering.

    Attributes:
        aig: the lowered netlist (alphabet {PI, AND, NOT, DFF}).
        fanout_of: original node id -> AIG node id carrying the same signal
            (the "fanout gate" of the decomposed combination).
    """

    aig: Netlist
    fanout_of: dict[int, int] = field(default_factory=dict)


def to_aig(nl: Netlist, name: str | None = None) -> AigMapping:
    """Rewrite ``nl`` into sequential AIG form without optimization.

    Decompositions used (a' = NOT a)::

        BUF(a)        -> NOT(NOT(a))
        OR(a, b)      -> NOT(AND(a', b'))
        NAND(a, b)    -> NOT(AND(a, b))
        NOR(a, b)     -> AND(a', b')
        XOR(a, b)     -> NOT(AND(NOT(AND(a, b')), NOT(AND(a', b))))  # OR of minterms
        XNOR(a, b)    -> NOT(XOR(a, b))
        MUX(s, a, b)  -> OR(AND(a, s'), AND(b, s))
        CONST0        -> AND(x, x') for an arbitrary PI x (or fresh tie PI)
        CONST1        -> NOT(CONST0)

    n-ary AND/OR/XOR/... first become balanced 2-input trees.  Existing AIG
    nodes pass through untouched, so lowering is idempotent.
    """
    b = _Builder(nl)
    # Lower combinational gates in an order where fanins are ready.  DFF
    # outputs count as ready (their shells exist); only combinational
    # fanin edges impose ordering.
    for node in cut_topo_order(nl, smallest_first=False):
        gt = nl.gate_type(node)
        if gt not in _SHELLS:
            fanins = [b.mapping[f] for f in nl.fanins(node)]
            b.mapping[node] = _lower_gate(b, gt, fanins, nl.node_name(node))
    lowered = b.finish(nl, name or f"{nl.name}_aig")
    if not lowered.aig.is_aig():
        raise NetlistError("internal error: lowering left non-AIG nodes")
    return lowered


_SHELLS = (GateType.PI, GateType.DFF)


class _Rows:
    """An output netlist as one ``(type, fanins, name)`` row per node, made
    a :class:`Netlist` in one step by :meth:`finish`."""

    def __init__(self, nl: Netlist) -> None:
        self.types: list[GateType] = []
        self.fanins: list[tuple[int, ...]] = []
        self.names: list[str] = []
        #: Original node -> output node.  PIs and DFFs come first and are
        #: never merged; DFF rows are wired last (loops reference later nodes).
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


class _Builder(_Rows):
    """Named intermediate AIG nodes."""

    _const0: int | None = None
    _counter = 0

    def fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}__aig{self._counter}"

    def not_(self, a: int, name: str | None = None) -> int:
        return self.add(GateType.NOT, (a,), name or self.fresh("inv"))

    def and_(self, a: int, b: int, name: str | None = None) -> int:
        return self.add(GateType.AND, (a, b), name or self.fresh("and"))

    def or_(self, a: int, b: int, name: str | None = None) -> int:
        # OR(a,b) = NOT(AND(a', b'))
        return self.not_(self.and_(self.not_(a), self.not_(b)), name)

    def xor_(self, a: int, b: int, name: str | None = None) -> int:
        # XOR(a,b) = OR(AND(a, b'), AND(a', b))
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
        # Callers wanting a named constant get a buffer-free alias via NOT-NOT.
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
    """Reduce an n-ary gate (two or more fanins: the lowering checked) into
    a balanced tree of 2-input ops."""
    layer = list(fanins)
    while len(layer) > 2:
        layer = [
            op(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return op(layer[0], layer[1], name)


def strash(nl: Netlist, name: str | None = None) -> AigMapping:
    """Structural hashing: merge identical AIG nodes.

    Two AND nodes with the same (unordered) fanin pair, or two NOTs with
    the same fanin, compute the same function and are merged.  This is the
    classic AIG 'strash' pass; it is *optional* in the DeepSeq flow (the
    paper decomposes test circuits "without any optimization") but useful
    for dataset deduplication and as an ablation knob — strash changes the
    graph the GNN sees without changing circuit function.

    Returns an :class:`AigMapping` whose ``fanout_of`` maps every original
    node to its representative in the hashed netlist.
    """
    if not nl.is_aig():
        raise NetlistError("strash operates on AIG netlists; run to_aig first")
    rows = _Rows(nl)
    mapping = rows.mapping
    table: dict[tuple, int] = {}
    for node in cut_topo_order(nl, smallest_first=False):
        gt = nl.gate_type(node)
        if gt in _SHELLS:
            continue
        fanins = tuple(mapping[f] for f in nl.fanins(node))
        key = (gt, tuple(sorted(fanins))) if gt is GateType.AND else (gt, fanins)
        if key not in table:
            table[key] = rows.add(gt, fanins, nl.node_name(node))
        mapping[node] = table[key]
    return rows.finish(nl, name or f"{nl.name}_strash")

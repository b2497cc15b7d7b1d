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
from functools import lru_cache

import numpy as np

from repro.circuit.gates import AIG_TYPES, GateType
from repro.circuit.levelize import cut_topo_order
from repro.circuit.netlist import GATE_TYPES, Netlist, NetlistError, Structure

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

    The output lists the PIs and DFFs first (in id order), then each gate's
    rows in one cut-graph topological walk (last-readied first), the gate's
    signal on its last row.  Every gate of one ``(type, arity)`` group
    lowers to the same rows (:func:`_template`), so all rows are written in
    one scatter of template rows over the input's arrays.  Intermediate
    rows are named ``<stem>__aig<k>``, ``k`` counting them in output order.
    The shared constant (``NOT x``, ``AND x x'``, after a tie PI when ``nl``
    has no PI) is emitted just before the first constant gate.
    """
    s = nl.structure()
    code, ptr, idx, arity = s.type_code, s.fanin_ptr, s.fanin_idx, s.arity
    walk = np.array(cut_topo_order(nl, smallest_first=False), dtype=np.int64)
    shell = (code == _PI) | (code == _DFF)
    shells = np.flatnonzero(shell)
    gates = walk[~shell[walk]]
    width = int(arity.max()) + 1
    groups, group_of = np.unique(
        code[gates].astype(np.int64) * width + arity[gates], return_inverse=True
    )
    templates = [_template(*divmod(int(key), width)) for key in groups]
    sizes = np.array([t.size for t in templates], dtype=np.int64)
    counts = sizes[group_of]

    # The shared constant's rows go in front of the first constant gate.
    is_const = (code[gates] == _CONST0) | (code[gates] == _CONST1)
    has_pi = bool((code[shells] == _PI).any())
    const_rows = (2 if has_pi else 3) if is_const.any() else 0
    first_const = int(np.argmax(is_const)) if const_rows else 0
    extra = np.zeros(gates.size, dtype=np.int64)
    if const_rows:
        extra[first_const] = const_rows
    ends = shells.size + np.cumsum(counts + extra)
    starts = ends - counts
    total = int(ends[-1]) if gates.size else shells.size

    out_of = np.empty(code.size, dtype=np.int64)
    out_of[shells] = np.arange(shells.size)
    out_of[gates] = ends - 1
    out_code = np.empty(total, dtype=np.int8)
    out_fanin = np.zeros((total, 2), dtype=np.int64)
    stem = np.full(total, -1, dtype=np.int8)  # generated-name stem; -1: named

    out_code[: shells.size] = code[shells]
    dff_rows = np.flatnonzero(code[shells] == _DFF)
    out_fanin[dff_rows, 0] = out_of[idx[ptr[shells[dff_rows]]]]
    const0 = 0
    if const_rows:
        at = int(starts[first_const]) - const_rows
        if has_pi:
            src = int(np.flatnonzero(code[shells] == _PI)[0])
        else:
            src = at
            out_code[at], stem[at] = _PI, _STEM_TIE
        const0 = at + const_rows - 1
        out_code[const0 - 1 : const0 + 1] = _NOT, _AND
        out_fanin[const0 - 1, 0] = src
        out_fanin[const0] = src, const0 - 1
        stem[const0 - 1 : const0 + 1] = _STEM[_NOT], _STEM_CONST0

    # Every gate's template rows at once: row ``local`` of gate ``owner``
    # is template row ``base[group] + local``.  An operand below the gate's
    # arity is a pin, equal to it the constant, above it one of its rows.
    owner = np.repeat(np.arange(gates.size), counts)
    local = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    rows = starts[owner] + local
    template_row = (np.cumsum(sizes) - sizes)[group_of[owner]] + local
    operand = np.concatenate([t.operands for t in templates])[template_row]
    pins = arity[gates][owner][:, None]
    pin_at = ptr[gates][owner][:, None] + np.minimum(operand, np.maximum(pins - 1, 0))
    out_fanin[rows] = np.where(
        operand < pins,
        out_of[np.append(idx, 0)[pin_at]],  # a pin-less gate reads a dummy
        np.where(operand == pins, const0, (rows - local)[:, None] + operand - pins - 1),
    )
    out_code[rows] = np.concatenate([t.codes for t in templates])[template_row]
    stem[rows] = _STEM[out_code[rows]]
    out_arity = _ROW_ARITY[out_code]

    # Gates keep their names on their last row; a gate named "" (names
    # are unique, so at most one) gets a generated name there instead.
    names = np.array(nl.node_names(), dtype=object)
    named = np.ones(code.size, dtype=bool)
    named[gates] = names[gates] != ""
    stem[out_of[named]] = -1
    generated = np.flatnonzero(stem >= 0)
    out_names = np.empty(total, dtype=object)
    out_names[out_of[named]] = names[named]
    out_names[generated] = [
        f"{_STEMS[k]}__aig{i}"
        for i, k in enumerate(stem[generated].tolist(), start=1)
    ]

    structure = Structure(
        out_code,
        np.concatenate([[0], np.cumsum(out_arity)]),
        out_fanin[np.arange(2) < out_arity[:, None]],
        out_of[s.pos],
    )
    old = np.concatenate([shells, gates])
    if s.is_aig():  # one row per node: a renumbering
        structure.renumbering_of(s, old)
    out = Netlist.from_structure(structure, out_names.tolist(), name or f"{nl.name}_aig")
    out.validate()
    if not out.is_aig():
        raise NetlistError("internal error: lowering left non-AIG nodes")
    return AigMapping(aig=out, fanout_of=dict(zip(old.tolist(), out_of[old].tolist())))


_PI, _AND, _NOT, _DFF = (GATE_TYPES.index(t) for t in AIG_TYPES)
_CONST0, _CONST1 = (GATE_TYPES.index(t) for t in (GateType.CONST0, GateType.CONST1))
#: Generated-name stems; rows are named after their type, except the tie PI
#: and the shared constant's AND.
_STEMS = ("inv", "and", "tie", "const0")
_STEM_TIE, _STEM_CONST0 = 2, 3
_STEM = np.zeros(len(GATE_TYPES), dtype=np.int8)
_STEM[_AND] = 1
#: Fanin count of an output row (PI 0, NOT and DFF 1, AND 2).
_ROW_ARITY = np.zeros(len(GATE_TYPES), dtype=np.int64)
_ROW_ARITY[_NOT], _ROW_ARITY[_DFF], _ROW_ARITY[_AND] = 1, 1, 2


class _Template:
    """The rows one gate lowers to, in emission order; the last carries the
    gate's signal.  Operands index the gate's operand vector: its
    ``arity`` lowered fanins, the shared constant, then its own rows."""

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self._codes: list[int] = []
        self._operands: list[tuple[int, int]] = []

    @property
    def size(self) -> int:
        return len(self._codes)

    def freeze(self) -> "_Template":
        self.codes = np.array(self._codes, dtype=np.int8)
        self.operands = np.array(self._operands, dtype=np.int64).reshape(-1, 2)
        for arr in (self.codes, self.operands):
            arr.setflags(write=False)  # shared by every call (``_template``)
        return self

    def _add(self, code: int, a: int, b: int = 0) -> int:
        self._codes.append(code)
        self._operands.append((a, b))
        return self.arity + self.size  # own rows follow pins and the constant

    def not_(self, a: int) -> int:
        return self._add(_NOT, a)

    def and_(self, a: int, b: int) -> int:
        return self._add(_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        # OR(a,b) = NOT(AND(a', b'))
        return self.not_(self.and_(self.not_(a), self.not_(b)))

    def xor_(self, a: int, b: int) -> int:
        # XOR(a,b) = OR(AND(a, b'), AND(a', b))
        t1 = self.and_(a, self.not_(b))
        t2 = self.and_(self.not_(a), b)
        return self.or_(t1, t2)


@lru_cache(maxsize=None)
def _template(code: int, arity: int) -> _Template:
    t, pins, const = _Template(arity), list(range(arity)), arity
    gt = GATE_TYPES[code]
    if gt is GateType.NOT:
        t.not_(pins[0])
    elif gt is GateType.BUF:
        t.not_(t.not_(pins[0]))
    elif gt is GateType.AND:
        _tree(t.and_, pins)
    elif gt is GateType.OR:
        _tree(t.or_, pins)
    elif gt is GateType.NAND:
        t.not_(_tree(t.and_, pins))
    elif gt is GateType.NOR:
        t.not_(_tree(t.or_, pins))
    elif gt is GateType.XOR:
        _tree(t.xor_, pins)
    elif gt is GateType.XNOR:
        t.not_(_tree(t.xor_, pins))
    elif gt is GateType.MUX:
        sel, a, f1 = pins
        t.or_(t.and_(a, t.not_(sel)), t.and_(f1, sel))
    elif gt is GateType.CONST0:
        t.not_(t.not_(const))
    elif gt is GateType.CONST1:
        t.not_(const)
    else:
        raise NetlistError(f"cannot lower gate type {gt}")
    return t.freeze()


def _tree(op, fanins: list[int]) -> int:
    """Reduce an n-ary gate (two or more fanins: the lowering checked) into
    a balanced tree of 2-input ops."""
    layer = list(fanins)
    while len(layer) > 2:
        layer = [
            op(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return op(layer[0], layer[1])


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
            if nl.gate_type(node) in (GateType.PI, GateType.DFF)
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
        if gt in (GateType.PI, GateType.DFF):
            continue
        fanins = tuple(mapping[f] for f in nl.fanins(node))
        key = (gt, tuple(sorted(fanins))) if gt is GateType.AND else (gt, fanins)
        if key not in table:
            table[key] = rows.add(gt, fanins, nl.node_name(node))
        mapping[node] = table[key]
    return rows.finish(nl, name or f"{nl.name}_strash")

"""The netlist intermediate representation.

A :class:`Netlist` is a flat, index-addressed container of gates plus fanin
lists — the common currency every other subsystem consumes (simulator, AIG
lowering, graph engine, models).  It intentionally stays close to a
structural ``.bench`` view of a circuit:

* nodes are integers ``0..n-1`` with a :class:`~repro.circuit.gates.GateType`
  and an optional name;
* edges are stored as per-node fanin tuples (ordered — MUX cares);
* primary outputs are an explicit subset of nodes;
* DFF fan-in edges are the only legal way to close a cycle.

Every array the rest of the system derives from a netlist — validity, the
content hash, levels, the GNN graph, the simulator's groups, packs — starts
from its one :class:`Structure` (:meth:`Netlist.structure`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.circuit.gates import AIG_TYPES, FANIN_ARITY, GateType

__all__ = [
    "GATE_TYPES",
    "Netlist",
    "NetlistError",
    "Structure",
    "kahn",
    "split_rows",
    "structure_of",
]

#: ``Structure.type_code`` indexes this tuple.  The AIG alphabet comes
#: first, so an AIG's codes are its one-hot feature indices.
GATE_TYPES: tuple[GateType, ...] = AIG_TYPES + tuple(
    t for t in GateType if t not in AIG_TYPES
)
_CODE = {t: i for i, t in enumerate(GATE_TYPES)}
_DFF, _AND = _CODE[GateType.DFF], _CODE[GateType.AND]
#: Required arity per type code; -1 stands for "any count >= 2".
_ARITY = np.array(
    [-1 if FANIN_ARITY[t] is None else FANIN_ARITY[t] for t in GATE_TYPES],
    dtype=np.int64,
)
_VALUES = np.array([t.value for t in GATE_TYPES], dtype=object)


class NetlistError(ValueError):
    """Raised for structurally invalid netlists or invalid edits."""


@dataclass
class _Node:
    gate_type: GateType
    fanins: tuple[int, ...]
    name: str


def _check_arity(node: _Node, node_id: int | None = None, strict: bool = False) -> None:
    # Non-strict mode (add_gate / set_fanins) accepts an empty fanin
    # tuple as "not wired yet" so two-pass construction — required for
    # sequential loops and forward references in .bench files — works;
    # the lowering re-checks everything strictly.
    expected, count = FANIN_ARITY[node.gate_type], len(node.fanins)
    where = f"node {node_id} " if node_id is not None else ""
    if node.gate_type is GateType.DFF:
        if count > 1:
            raise NetlistError(f"{where}DFF takes exactly one fanin")
    elif (count or strict) and (count < 2 if expected is None else count != expected):
        raise NetlistError(
            f"{where}{node.gate_type.value} requires "
            f"{'>= 2' if expected is None else expected} fanins, got {count}"
        )


def _check_node(node_id: int, node: _Node, n: int) -> None:
    """Every per-node invariant, in the order a bad node is reported."""
    for f in node.fanins:
        if not 0 <= f < n:
            raise NetlistError(
                f"node {node_id} ({node.name}) has out-of-range fanin {f}"
            )
    if node.gate_type is GateType.DFF and len(node.fanins) != 1:
        raise NetlistError(
            f"DFF {node_id} ({node.name}) has dangling/extra data input"
        )
    _check_arity(node, node_id=node_id, strict=True)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(ptr, idx)`` of the ``rows[e] -> cols[e]`` relation over ``n``
    rows; entries of one row keep their input order."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return _frozen(ptr), _frozen(cols[np.argsort(rows, kind="stable")])


def split_rows(arr: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Consecutive slices of ``arr`` with the given lengths (``np.split``
    without its per-piece overhead)."""
    ends = counts.cumsum().tolist()
    return [arr[lo:hi] for lo, hi in zip([0] + ends, ends)]


def kahn(
    pending: list[int],
    succs: tuple[np.ndarray, np.ndarray],
    level: list[int],
    smallest_first: bool = False,
) -> list[int]:
    """Kahn's topological sort of a DAG in CSR form — the only one in the
    repo; levels, validation and the renumbering passes all run it.

    ``pending`` (consumed) counts each node's unvisited predecessors and
    ``level`` holds the sources' levels; on return it holds every visited
    node's longest-path level and the visit order is returned.  Ready
    nodes are visited last-readied first, or smallest id first.  Nodes on
    or behind a cycle are never visited and keep ``pending > 0``.
    """
    bounds, flat = succs[0].tolist(), succs[1].tolist()
    ready = [v for v, count in enumerate(pending) if count == 0]  # sorted: a heap
    pop, push = (heappop, heappush) if smallest_first else (list.pop, list.append)
    order: list[int] = []
    while ready:
        v = pop(ready)
        order.append(v)
        above = level[v] + 1
        for w in flat[bounds[v] : bounds[v + 1]]:
            if level[w] < above:
                level[w] = above
            pending[w] -= 1
            if pending[w] == 0:
                push(ready, w)
    return order


@dataclass(frozen=True, eq=False)
class Structure:
    """The flat-array lowering of a netlist's structure (names excluded).

    Attributes (all read-only):
        type_code: (N,) int8 index into :data:`GATE_TYPES`.
        fanin_ptr / fanin_idx: CSR fanin lists — node ``i`` reads
            ``fanin_idx[fanin_ptr[i]:fanin_ptr[i + 1]]``, in pin order.
        pos: primary-output node ids in declaration order.

    :meth:`check` runs every per-node check, :meth:`forward_levels` the
    global one (an acyclic cut graph); derived facts are kept through
    :meth:`memo`.
    """

    type_code: np.ndarray
    fanin_ptr: np.ndarray
    fanin_idx: np.ndarray
    pos: np.ndarray
    _memo: dict[str, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.type_code, self.fanin_ptr, self.fanin_idx, self.pos):
            arr.setflags(write=False)

    @classmethod
    def from_rows(
        cls,
        types: Sequence[GateType],
        fanins: Sequence[Sequence[int]],
        pos: Sequence[int],
    ) -> "Structure":
        """Arrays from one gate type and one fanin row per node, unchecked."""
        n = len(types)
        type_code = np.array([_CODE[t] for t in types], dtype=np.int8)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, fanins), np.int64, n), out=ptr[1:])
        try:
            idx = np.fromiter(chain.from_iterable(fanins), np.int64, ptr[-1])
        except OverflowError:  # an id no int64 holds: report it as stray
            idx = np.full(int(ptr[-1]), -1, dtype=np.int64)
        return cls(type_code, ptr, idx, np.array(pos, dtype=np.int64))

    @classmethod
    def lower(cls, nodes: Sequence[_Node], pos: Sequence[int]) -> "Structure":
        """Lower a node list to arrays, checking it strictly."""
        structure = cls.from_rows(
            [nd.gate_type for nd in nodes], [nd.fanins for nd in nodes], pos
        )
        structure.check(nodes.__getitem__)
        return structure

    def check(self, node_at: Callable[[int], _Node]) -> None:
        """Every per-node invariant and the PO range, as vector tests;
        ``node_at`` supplies the first offender for the error text."""
        n = self.num_nodes
        if n == 0:
            raise NetlistError("empty netlist")
        arity, expected = self.arity, _ARITY[self.type_code]
        bad = np.where(expected < 0, arity < 2, arity != expected)
        stray = np.flatnonzero((self.fanin_idx < 0) | (self.fanin_idx >= n))
        bad[np.searchsorted(self.fanin_ptr, stray, side="right") - 1] = True
        for node_id in np.flatnonzero(bad).tolist():
            _check_node(node_id, node_at(node_id), n)
        stray = self.pos[(self.pos < 0) | (self.pos >= n)]
        if stray.size:
            raise NetlistError(f"PO references unknown node {stray[0]}")

    @classmethod
    def concat(cls, parts: Sequence["Structure"]) -> "Structure":
        """The disjoint union, members renumbered by node offset; its levels
        are the members' levels, concatenated without a sweep (reverse ones
        only when every member has them)."""
        node_off = np.cumsum([0] + [p.num_nodes for p in parts])
        edge_off = np.cumsum([0] + [p.fanin_idx.size for p in parts])
        union = cls(
            np.concatenate([p.type_code for p in parts]),
            np.concatenate(
                [p.fanin_ptr[:-1] + off for p, off in zip(parts, edge_off)]
                + [edge_off[-1:]]
            ),
            np.concatenate([p.fanin_idx + off for p, off in zip(parts, node_off)]),
            np.concatenate([p.pos + off for p, off in zip(parts, node_off)]),
        )
        union._memo["forward"] = _frozen(
            np.concatenate([p.forward_levels() for p in parts])
        )
        if all("reverse" in p._memo for p in parts):
            union._memo["reverse"] = _frozen(
                np.concatenate([p._memo["reverse"] for p in parts])
            )
        return union

    def renumbering_of(self, source: "Structure", old: np.ndarray) -> None:
        """Declare this structure to be ``source`` with node ``old[j]`` as
        node ``j``: its levels are then ``source``'s, gathered on the first
        request instead of swept."""
        self._memo["renumbered_from"] = (source, old)

    def memo(self, key: str, build: Callable[["Structure"], object]):
        """``build(self)``, computed on first request and kept."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(self)
            return value

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.type_code.size)

    @property
    def arity(self) -> np.ndarray:
        return np.diff(self.fanin_ptr)

    @property
    def num_pis(self) -> int:
        return int((self.type_code == _CODE[GateType.PI]).sum())

    def ids(self, gate_type: GateType) -> np.ndarray:
        """Ascending int64 ids of the nodes of one type."""
        return np.flatnonzero(self.type_code == _CODE[gate_type])

    @property
    def comb_ids(self) -> np.ndarray:
        """Ids of everything that computes: not a PI, not a DFF."""
        return np.flatnonzero(~np.isin(self.type_code, (_CODE[GateType.PI], _DFF)))

    def is_aig(self) -> bool:
        """See :meth:`Netlist.is_aig`."""
        return bool(
            (self.type_code < len(AIG_TYPES)).all()
            and (self.arity[self.type_code == _AND] == 2).all()
        )

    def fingerprint(self) -> str:
        """See :meth:`Netlist.fingerprint`."""
        return self.memo("fingerprint", Structure._fingerprint)

    def _fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.num_nodes.to_bytes(8, "little"))
        h.update(",".join(_VALUES[self.type_code]).encode())
        h.update(self.arity.tobytes())
        h.update(self.fanin_idx.tobytes())
        h.update(self.pos.tobytes())
        return h.hexdigest()

    def adjacency(self, cut: bool) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(fanins, fanouts)`` as CSR ``(ptr, idx)`` pairs: fanin rows in
        pin order, fanout rows in (consumer id, pin) order.  ``cut`` drops
        the edges into DFFs, the learning graph's cut."""

        def build(s: "Structure"):
            n = s.num_nodes
            dst = np.repeat(np.arange(n, dtype=np.int64), s.arity)
            src = s.fanin_idx
            if not cut:
                return (s.fanin_ptr, src), _csr(src, dst, n)
            keep = s.type_code[dst] != _DFF
            src, dst = src[keep], dst[keep]
            return _csr(dst, src, n), _csr(src, dst, n)

        return self.memo(f"adjacency[{cut}]", build)

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(forward, reverse) int32 logic levels of the cut graph: PIs and
        constants at 0, DFFs "moved to logic level 1", gates one above
        their deepest fanin; reverse likewise from the sinks.  Raises
        :class:`NetlistError` when a cycle avoids every DFF."""
        return self.forward_levels(), self.memo("reverse", Structure._reverse_levels)

    def forward_levels(self) -> np.ndarray:
        """The forward half of :meth:`levels`, alone: the acyclicity check
        :meth:`Netlist.validate` runs."""
        return self.memo("forward", Structure._levels)

    def _levels(self) -> np.ndarray:
        """Forward levels: a renumbering's are its source's, gathered (with
        the reverse ones when the source has them); otherwise one Kahn sweep."""
        renumbered = self._memo.pop("renumbered_from", None)
        if renumbered is not None:
            source, old = renumbered
            if "reverse" in source._memo:
                self._memo["reverse"] = _frozen(source._memo["reverse"][old])
            return _frozen(source.forward_levels()[old])
        fanins, fanouts = self.adjacency(cut=True)
        pending = np.diff(fanins[0]).tolist()
        level = (self.type_code == _DFF).astype(np.int32).tolist()
        kahn(pending, fanouts, level)
        bad = [v for v, count in enumerate(pending) if count]
        if bad:
            raise NetlistError(
                f"combinational cycle through nodes {bad[:8]}"
                f"{'...' if len(bad) > 8 else ''}"
            )
        return _frozen(np.array(level, dtype=np.int32))

    def _reverse_levels(self) -> np.ndarray:
        fanins, fanouts = self.adjacency(cut=True)
        reverse = [0] * self.num_nodes
        kahn(np.diff(fanouts[0]).tolist(), fanins, reverse)
        return _frozen(np.array(reverse, dtype=np.int32))


def structure_of(circuit: "Netlist | Structure") -> Structure:
    """The lowering of a netlist, or the structure itself."""
    return circuit if isinstance(circuit, Structure) else circuit.structure()


class Netlist:
    """A gate-level sequential netlist.

    Gates are added through :meth:`add_gate` (or the :meth:`add_pi` /
    :meth:`add_dff` conveniences) and referred to by their integer id; a
    netlist that already exists as arrays is made by :meth:`from_structure`.
    Fanins may reference not-yet-added ids only for DFFs (sequential loops);
    :meth:`validate` checks every structural invariant at once.

    :meth:`structure` lowers the netlist to arrays and keeps the result
    until the next structural edit; it is neither copied nor pickled.

    Example:
        >>> nl = Netlist(name="toggle")
        >>> a = nl.add_pi("a")
        >>> ff = nl.add_dff(fanin=None, name="state")   # fanin patched below
        >>> inv = nl.add_gate(GateType.NOT, [ff], "n1")
        >>> g = nl.add_gate(GateType.AND, [a, inv], "g1")
        >>> nl.set_fanins(ff, [g])
        >>> nl.add_po(g)
        >>> nl.validate()
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._nodes: list[_Node] = []
        self._pos: list[int] = []
        self._names: dict[str, int] = {}

    #: The kept lowering; ``None`` until asked for and after every edit.
    _structure: Structure | None = None
    #: A netlist made from arrays has no rows until a per-node accessor
    #: needs them (:meth:`__getattr__`); until then it keeps its names here.
    _lazy_names: list[str] | None = None

    def __getattr__(self, attr: str):
        # Reached only while ``_nodes`` is unset: build the rows once.
        if attr != "_nodes":
            raise AttributeError(attr)
        names = self._lazy_names
        if names is None:  # another thread may have built them meanwhile
            try:
                return self.__dict__["_nodes"]
            except KeyError:
                raise AttributeError(attr) from None
        s = self._structure
        codes, bounds, flat = (
            a.tolist() for a in (s.type_code, s.fanin_ptr, s.fanin_idx)
        )
        rows = [
            _Node(GATE_TYPES[c], tuple(flat[lo:hi]), nm)
            for c, lo, hi, nm in zip(codes, bounds, bounds[1:], names)
        ]
        # Two threads may race here: the first rows stored win.
        rows = self.__dict__.setdefault("_nodes", rows)
        self.__dict__.pop("_lazy_names", None)
        return rows

    def __getstate__(self) -> dict:
        # The row form, whatever the netlist was made from; no lowering.
        nodes = self._nodes
        return {
            "name": self.name, "_nodes": nodes, "_pos": self._pos, "_names": self._names
        }

    @classmethod
    def from_structure(
        cls,
        structure: Structure,
        names: Sequence[str] | None = None,
        name: str = "netlist",
    ) -> "Netlist":
        """The netlist whose lowering is ``structure`` — the one way arrays
        become a netlist.  Runs the checks of :meth:`structure` (plus: the
        arrays describe a CSR, names and POs are distinct) and keeps
        ``structure`` as the lowering, so the result is never re-lowered;
        its per-node rows are built on first use.  ``names`` default to
        ``n<i>``."""
        code, ptr, idx = structure.type_code, structure.fanin_ptr, structure.fanin_idx
        n = code.size
        if (
            ptr.size != n + 1 or ptr[0] != 0 or ptr[-1] != idx.size
            or (np.diff(ptr) < 0).any() or (code < 0).any()
            or (code >= len(GATE_TYPES)).any()
        ):
            raise NetlistError("structure arrays do not describe a netlist")
        names = [f"n{i}" for i in range(n)] if names is None else list(names)
        if len(names) != n:
            raise NetlistError(f"{len(names)} names for {n} nodes")
        index = dict(zip(names, range(n)))
        if len(index) != n:
            seen: set[str] = set()
            clash = next(nm for nm in names if nm in seen or seen.add(nm))
            raise NetlistError(f"duplicate node name {clash!r}")
        pos = structure.pos.tolist()
        if len(set(pos)) != len(pos):
            raise NetlistError("a PO is listed twice")

        def node_at(i: int) -> _Node:
            fanins = tuple(idx[ptr[i] : ptr[i + 1]].tolist())
            return _Node(GATE_TYPES[code[i]], fanins, names[i])

        structure.check(node_at)
        nl = cls.__new__(cls)
        nl.name, nl._pos, nl._names = name, pos, index
        nl._structure, nl._lazy_names = structure, names
        return nl

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(
        self,
        gate_type: GateType,
        fanins: Sequence[int] = (),
        name: str | None = None,
    ) -> int:
        """Append a gate and return its id."""
        idx = len(self._nodes)
        resolved = name if name is not None else f"n{idx}"
        if resolved in self._names:
            raise NetlistError(f"duplicate node name {resolved!r}")
        node = _Node(gate_type, tuple(int(f) for f in fanins), resolved)
        _check_arity(node)
        self._nodes.append(node)
        self._names[resolved] = idx
        self._structure = None
        return idx

    def add_pi(self, name: str | None = None) -> int:
        """Append a primary input."""
        return self.add_gate(GateType.PI, (), name)

    def add_dff(self, fanin: int | None, name: str | None = None) -> int:
        """Append a D flip-flop.

        ``fanin=None`` leaves the data input dangling so forward references
        in sequential loops can be patched later via :meth:`set_fanins`.
        """
        return self.add_gate(GateType.DFF, () if fanin is None else (fanin,), name)

    def set_fanins(self, node: int, fanins: Sequence[int]) -> None:
        """Replace a node's fanin tuple (used to close sequential loops)."""
        entry = self._nodes[node]
        updated = _Node(entry.gate_type, tuple(int(f) for f in fanins), entry.name)
        _check_arity(updated)
        self._nodes[node] = updated
        self._structure = None

    def add_po(self, node: int) -> None:
        """Mark an existing node as a primary output."""
        if not 0 <= node < len(self._nodes):
            raise NetlistError(f"PO references unknown node {node}")
        if node not in self._pos:
            self._pos.append(node)
            self._structure = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        s = self._structure
        return s.num_nodes if s is not None else len(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self)

    @property
    def num_edges(self) -> int:
        s = self._structure
        if s is not None:
            return int(s.fanin_idx.size)
        return sum(len(n.fanins) for n in self._nodes)

    def gate_type(self, node: int) -> GateType:
        if self._lazy_names is not None:
            return GATE_TYPES[self._structure.type_code[node]]
        return self._nodes[node].gate_type

    def fanins(self, node: int) -> tuple[int, ...]:
        return self._nodes[node].fanins

    def node_name(self, node: int) -> str:
        names = self._lazy_names
        return names[node] if names is not None else self._nodes[node].name

    def node_names(self) -> list[str]:
        """Every node's name, in id order."""
        names = self._lazy_names
        return list(names) if names is not None else [n.name for n in self._nodes]

    def node_by_name(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    def nodes(self) -> Iterator[int]:
        return iter(range(len(self)))

    def nodes_of_type(self, *types: GateType) -> list[int]:
        s = self._structure
        if s is not None:  # ``np.isin`` costs more than the whole answer
            hit = np.zeros(s.num_nodes, dtype=bool)
            for t in types:
                hit |= s.type_code == _CODE[t]
            return np.flatnonzero(hit).tolist()
        # Tuple membership compares enum members by identity; a set would
        # call the Python-level ``Enum.__hash__`` once per node.
        return [i for i, n in enumerate(self._nodes) if n.gate_type in types]

    @property
    def pis(self) -> list[int]:
        return self.nodes_of_type(GateType.PI)

    @property
    def dffs(self) -> list[int]:
        return self.nodes_of_type(GateType.DFF)

    @property
    def pos(self) -> list[int]:
        return list(self._pos)

    def fanouts(self) -> list[list[int]]:
        """Compute fanout adjacency (successors) for every node."""
        out: list[list[int]] = [[] for _ in self._nodes]
        for i, node in enumerate(self._nodes):
            for f in node.fanins:
                out[f].append(i)
        return out

    def fingerprint(self) -> str:
        """Stable content hash of the netlist *structure*.

        Covers gate types, fanin wiring and the PO set — not node names —
        so structurally identical circuits (e.g. repeated instances of one
        design inside a packed batch) share a fingerprint.  Used by
        :mod:`repro.runtime` to key compiled graph plans; reflects the
        content at call time, so hash after mutation, not before.
        """
        return self.structure().fingerprint()

    def is_aig(self) -> bool:
        """True when every node belongs to the sequential-AIG alphabet with
        strict 2-input ANDs."""
        return self.structure().is_aig()

    # ------------------------------------------------------------------
    # lowering / validation
    # ------------------------------------------------------------------
    def structure(self) -> Structure:
        """The array lowering of the current content, built on the first
        call after a structural edit.  Raises :class:`NetlistError` for an
        empty netlist, an out-of-range fanin or PO, a wrong gate arity or a
        dangling DFF input."""
        if self._structure is None:
            self._structure = Structure.lower(self._nodes, self._pos)
        return self._structure

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`NetlistError`.

        Invariants: fanin ids in range; arity respects the gate library;
        no dangling DFF inputs; every combinational cycle passes through at
        least one DFF (i.e. the graph with DFF fan-in edges removed is
        acyclic); at least one PI or constant source exists.
        """
        self.structure().forward_levels()

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        dup = Netlist(name or self.name)
        dup._nodes = [_Node(n.gate_type, n.fanins, n.name) for n in self._nodes]
        dup._pos = list(self._pos)
        dup._names = dict(self._names)
        return dup

    # ------------------------------------------------------------------
    # stats / dunder
    # ------------------------------------------------------------------
    def type_counts(self) -> dict[GateType, int]:
        counts: dict[GateType, int] = {}
        for node in self._nodes:
            counts[node.gate_type] = counts.get(node.gate_type, 0) + 1
        return counts

    def __repr__(self) -> str:
        c = self.type_counts()
        pis = c.get(GateType.PI, 0)
        ffs = c.get(GateType.DFF, 0)
        return (
            f"Netlist({self.name!r}, nodes={len(self)}, pis={pis}, "
            f"dffs={ffs}, pos={len(self._pos)})"
        )

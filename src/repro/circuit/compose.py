"""Netlist composition: disjoint unions for topological batching.

The paper speeds training up with the topological batching of [16] (Thost &
Chen): several circuit graphs are merged into one disjoint union so one
levelized sweep processes all of them at once — level k of every member
circuit lands in the same vectorized batch.  :func:`disjoint_union` builds
that merged netlist and records the node-id offsets needed to map labels
and per-circuit data in and out.

:class:`MemberLayout` is that record on its own: the packed plans of the
GNN runtime and of the simulator, and packed training batches, all
derive from it, and :func:`check_pack_size` is the one ceiling on how
many members a pack may hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import GATE_TYPES, Netlist, Structure

__all__ = [
    "MAX_PACK_MEMBERS",
    "MemberLayout",
    "check_pack_size",
    "UnionMapping",
    "disjoint_union",
    "Stitch",
    "stitched_union",
]

_BUF = GATE_TYPES.index(GateType.BUF)

#: Hard ceiling on members per pack.  A pack this large would compile a
#: union far beyond any sane batch; requests above it are a caller bug
#: (e.g. an unchunked corpus), not a workload.
MAX_PACK_MEMBERS = 1024


def check_pack_size(count: int) -> None:
    """Raise a :class:`ValueError` for an empty pack and for one above
    :data:`MAX_PACK_MEMBERS`."""
    if not count:
        raise ValueError("cannot pack zero circuits")
    if count > MAX_PACK_MEMBERS:
        raise ValueError(
            f"cannot pack {count} circuits: exceeds "
            f"MAX_PACK_MEMBERS={MAX_PACK_MEMBERS}; chunk the batch"
        )


@dataclass(frozen=True)
class MemberLayout:
    """Where the members of a disjoint union sit in it.

    Attributes:
        sizes: node count per member, in member order.
        offsets: node-id offset of each member (member node ``i`` of
            circuit ``k`` is union node ``offsets[k] + i``), derived from
            ``sizes``.
    """

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        offsets = tuple(accumulate(self.sizes[:-1], initial=0))
        object.__setattr__(self, "offsets", offsets)

    @property
    def num_members(self) -> int:
        return len(self.sizes)

    def member_slice(self, member: int) -> slice:
        lo = self.offsets[member]
        return slice(lo, lo + self.sizes[member])


@dataclass(frozen=True)
class UnionMapping(MemberLayout):
    """Bookkeeping of a disjoint union netlist.

    Attributes:
        union: the merged netlist.
    """

    union: Netlist

    def to_union(self, member: int, node: int) -> int:
        return self.offsets[member] + node


def disjoint_union(netlists: list[Netlist], name: str = "union") -> UnionMapping:
    """Merge circuits into one netlist with renumbered, prefixed nodes.

    Node ids of member ``k`` map to ``offset_k + id``; this keeps each
    member's internal ordering, so per-node label arrays concatenate
    directly.  PIs keep PI type (the union has the concatenation of all
    member PIs, in member order — workload vectors concatenate likewise).
    """
    return stitched_union(netlists, [], name)


@dataclass(frozen=True)
class Stitch:
    """One cross-member wire of :func:`stitched_union`.

    Drives primary input ``pi`` of member ``dst`` from node ``src_node`` of
    member ``src``.  ``src`` must come before ``dst`` in the member list so
    stitches can never create a combinational cycle across members.
    """

    src: int
    src_node: int
    dst: int
    pi: int


def stitched_union(
    netlists: list[Netlist],
    stitches: list[Stitch],
    name: str = "stitched",
) -> UnionMapping:
    """Merge circuits and wire selected member PIs to earlier members' nodes.

    The workhorse of hierarchical generation: structured tiles (counters,
    FSMs, adders) and random clouds are built independently, then composed
    into one large design by converting some of each member's PIs into BUF
    gates fed from upstream members.  The returned mapping uses the same
    offset arithmetic as :func:`disjoint_union`; stitched PIs become BUF
    nodes (same node id) and disappear from the union's PI list.  The
    union is made from arrays: :meth:`Structure.concat` of the members,
    with each stitched PI's row patched into a BUF row.
    """
    if not netlists:
        raise ValueError("empty union")
    stitched_pis: dict[tuple[int, int], tuple[int, int]] = {}
    for s in stitches:
        if not 0 <= s.src < len(netlists) or not 0 <= s.dst < len(netlists):
            raise ValueError(f"stitch references unknown member: {s}")
        if s.src >= s.dst:
            raise ValueError(
                f"stitch must feed forward (src < dst), got {s.src} -> {s.dst}"
            )
        if netlists[s.dst].gate_type(s.pi) is not GateType.PI:
            raise ValueError(
                f"stitch target node {s.pi} of member {s.dst} is not a PI"
            )
        if not 0 <= s.src_node < len(netlists[s.src]):
            raise ValueError(f"stitch source node {s.src_node} out of range")
        key = (s.dst, s.pi)
        if key in stitched_pis:
            raise ValueError(f"PI {s.pi} of member {s.dst} stitched twice")
        stitched_pis[key] = (s.src, s.src_node)

    union = Structure.concat([nl.structure() for nl in netlists])
    if stitched_pis:
        offsets = np.cumsum([0] + [len(nl) for nl in netlists])
        dst = np.array([offsets[k] + pi for k, pi in stitched_pis], dtype=np.int64)
        src = np.array(
            [offsets[k] + node for k, node in stitched_pis.values()], dtype=np.int64
        )
        by_dst = np.argsort(dst)
        dst, src = dst[by_dst], src[by_dst]
        code, arity = union.type_code.copy(), union.arity
        code[dst] = _BUF
        arity[dst] = 1  # was a PI: no fanins
        union = Structure(
            code,
            np.concatenate([[0], np.cumsum(arity)]),
            # Equal positions (adjacent PIs) take their fanins in dst order.
            np.insert(union.fanin_idx, union.fanin_ptr[dst], src),
            union.pos,
        )
    names = [f"c{k}_{nm}" for k, nl in enumerate(netlists) for nm in nl.node_names()]
    union = Netlist.from_structure(union, names, name)
    union.validate()
    return UnionMapping(sizes=tuple(len(nl) for nl in netlists), union=union)

"""Multi-circuit packing: one super-graph plan for K circuits.

Packing builds the disjoint union of K member circuits — the members'
lowered arrays and levels concatenated with node offsets
(:meth:`repro.circuit.netlist.Structure.concat`), no union netlist — and
compiles a single :class:`~repro.runtime.plan.GraphPlan` for it, so one
levelized sweep amortizes the per-level Python loop across the whole
batch — level ``k`` of every member lands in the same vectorized edge
batch.  Because the
union has no cross-member edges, each member's node updates are identical
to a standalone run, and per-member predictions are recovered by slicing.

Packed plans are cached in a bounded LRU keyed by the tuple of member
content hashes: serving the same batch composition twice (the common case
for a predictor draining a steady stream) skips both the union
construction and the plan compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.compose import MAX_PACK_MEMBERS, MemberLayout, check_pack_size
from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Structure
from repro.lru import CacheInfo, FingerprintLRU
from repro.runtime.plan import GraphPlan, fingerprint_of, plan_for

__all__ = [
    "MAX_PACK_MEMBERS",
    "PackedPlan",
    "pack_graphs",
    "clear_pack_cache",
    "configure_pack_cache",
    "pack_cache_info",
]


@dataclass(frozen=True)
class PackedPlan(MemberLayout):
    """A compiled union plan plus the bookkeeping to slice members out.

    Attributes:
        plan: plan of the union super-graph (for a single member, the
            member's own plan — no union is built).
        member_keys: content hash per member (the cache key).
    """

    plan: GraphPlan
    member_keys: tuple[str, ...]

    @property
    def num_nodes(self) -> int:
        return self.plan.num_nodes


_CACHE = FingerprintLRU(32, "pack cache")


def pack_graphs(graphs: Sequence[CircuitGraph], cache: bool = True) -> PackedPlan:
    """Pack member circuit graphs into one compiled super-graph plan.

    Raises a :class:`ValueError` for empty packs and for packs above
    :data:`MAX_PACK_MEMBERS`.
    """
    check_pack_size(len(graphs))
    keys = tuple(fingerprint_of(g) for g in graphs)
    if cache:
        packed = _CACHE.get(keys)
        if packed is not None:
            return packed
    if len(graphs) == 1:
        union = graphs[0]
    else:
        union = CircuitGraph(Structure.concat([g.structure for g in graphs]))
    packed = PackedPlan(
        sizes=tuple(g.num_nodes for g in graphs),
        plan=plan_for(union, cache=cache),
        member_keys=keys,
    )
    return _CACHE.insert(keys, packed) if cache else packed


def configure_pack_cache(maxsize: int) -> None:
    """Bound the packed-plan cache to ``maxsize`` entries."""
    _CACHE.configure(maxsize)


def clear_pack_cache() -> None:
    """Drop every cached packed plan and reset the hit/miss counters."""
    _CACHE.clear()


def pack_cache_info() -> CacheInfo:
    """Current cache statistics (hits/misses/evictions/size/maxsize)."""
    return _CACHE.info()

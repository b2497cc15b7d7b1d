"""Packed multi-circuit simulation: one block-stepped sweep over K circuits.

The inference runtime packs K circuits into one disjoint super-graph so a
single levelized sweep serves the whole batch (:mod:`repro.runtime.pack`).
This module mirrors that trick for the ground-truth simulator, which is
the data factory's hot path: Monte-Carlo fault labelling pays per-circuit
Python/dispatch overhead K times over when netlists run one at a time.

A :class:`PackedSimPlan` is compiled over the disjoint union of K member
:class:`~repro.sim.logicsim.CompiledCircuit`\\ s — no union *netlist* is
ever built; member evaluation groups of equal ``(level, gate type,
arity)`` are concatenated directly with offset node ids, so one
``np.take`` per level plus one in-place kernel per group evaluate every member
at once, and the block engine's history/:meth:`ActivityCounter
.observe_block` reductions run on the stacked ``(block, N_total, words)``
buffers.  Packed plans live in a bounded LRU keyed by the tuple of member
content hashes, exactly like the runtime's pack cache.

This module also *is* the block executor's driver: the run loop and the
lockstep pass below are the only ones, and :func:`~repro.sim.logicsim.simulate` /
:func:`~repro.sim.faults.simulate_with_faults` call them with a
one-member pack (built uncached, so the pack LRU never sees it).

Everything observable is **bitwise-identical** to K sequential
per-cycle reference runs (``engine="cycle"``):

* stimulus stays per-member — each member draws blocks from its *own*
  PCG64 stream (:meth:`PatternSource.next_block`), consuming it in
  exactly the per-circuit order;
* random DFF initialization draws per member from a fresh generator,
  exactly as each member's own reset would;
* fault injection is one lockstep pass: golden and faulty machine share
  the sweep over a doubled word axis (``values`` is ``(N, 2W)``, low
  words golden, high words faulty).  Members share the fault seed, so
  one generator's raw stream serves them all, each read from its own
  position; every member's masks equal those a reference
  :class:`~repro.sim.faults._FaultInjector` draws per (cycle,
  member-group) in the member's own compiled-op order.  Only the
  non-zero masks are kept, per (cycle, union group), and the sweep XORs
  them in;
* all statistics accumulators are integers, so reducing them over the
  union and slicing per member cannot change a single count.

Because of this, packed float64 results, activity statistics, fault
labels and :class:`~repro.data.cache.LabelCache` digests are identical to
the per-circuit engine's — no ``CACHE_VERSION`` bump, and the packed path
never enters :func:`~repro.data.cache.label_key`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.lru import FingerprintLRU
from repro.memory import MemoryBudget
from repro.sim.bitvec import WORD_BITS, popcount_int64, words_for
from repro.sim.faults import (
    FaultConfig,
    FaultSimResult,
    _episode_schedule,
    _FaultInjector,
    _FaultStats,
)
from repro.sim.logicsim import (
    ActivityCounter,
    CompiledCircuit,
    SimConfig,
    SimPlan,
    SimResult,
    Simulator,
    _LevelOp,
    compile_netlist,
)
from repro.sim.workload import PatternSource, Workload

__all__ = [
    "MAX_PACK_MEMBERS",
    "PackedSimPlan",
    "pack_circuits",
    "simulate_packed",
    "simulate_with_faults_packed",
    "clear_sim_pack_cache",
    "configure_sim_pack_cache",
    "sim_pack_cache_info",
    "SimPackCacheInfo",
]

#: Hard ceiling on members per pack.  A pack this large would allocate
#: union buffers far beyond any sane batch; requests above it are a
#: caller bug (e.g. an unchunked corpus), not a workload.
MAX_PACK_MEMBERS = 1024


@dataclass(frozen=True)
class PackedSimPlan:
    """A compiled union circuit plus the bookkeeping to slice members out.

    Attributes:
        compiled: the union-level :class:`CompiledCircuit` (its ``netlist``
            is ``None`` — the union exists only as evaluation groups).
            For a single member this is the member's own compiled circuit.
        members: the member compiled circuits, in pack order.
        offsets: node-id offset of each member inside the union.
        sizes: node count per member.
        pi_slices: row range of each member's PIs inside stacked stimulus
            blocks (stimulus concatenates member blocks in pack order).
        po_ids: union node ids of each member's primary outputs.
        shifted_ops: per member, the union node ids of each of the
            member's evaluation groups, in the member's compiled-op order
            — the scatter targets for per-member fault-flip masks.
    """

    compiled: CompiledCircuit
    members: tuple[CompiledCircuit, ...]
    offsets: tuple[int, ...]
    sizes: tuple[int, ...]
    pi_slices: tuple[slice, ...]
    po_ids: tuple[np.ndarray, ...]
    shifted_ops: tuple[tuple[np.ndarray, ...], ...]

    @property
    def num_members(self) -> int:
        return len(self.offsets)

    @property
    def num_nodes(self) -> int:
        return self.compiled.num_nodes

    def member_slice(self, member: int) -> slice:
        lo = self.offsets[member]
        return slice(lo, lo + self.sizes[member])


@dataclass(frozen=True)
class SimPackCacheInfo:
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int


_CACHE = FingerprintLRU(32, SimPackCacheInfo, "sim pack cache")


def _shift(arr: np.ndarray, offset: int) -> np.ndarray:
    return arr + np.int64(offset) if arr.size else arr.copy()


def _merge_members(members: Sequence[CompiledCircuit]) -> CompiledCircuit:
    """Concatenate member evaluation groups into one union compiled circuit.

    Groups of equal ``(level, gate type, arity)`` merge across members;
    within a level no gate reads another's output, so any evaluation order
    of the merged groups settles identical values.  Group order follows
    :func:`compile_netlist`'s ``(level, type, arity)`` sort, member order
    inside a merged group follows pack order — both deterministic.
    """
    offsets = np.cumsum([0] + [m.num_nodes for m in members[:-1]])
    buckets: dict[tuple[int, str, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    types: dict[tuple[int, str, int], GateType] = {}
    for member, off in zip(members, offsets):
        for op in member.ops:
            key = (op.level, op.gate_type.value, op.fanins.shape[0])
            buckets.setdefault(key, []).append(
                (_shift(op.nodes, off), _shift(op.fanins, off))
            )
            types[key] = op.gate_type
    ops = []
    for key in sorted(buckets):
        parts = buckets[key]
        nodes = np.concatenate([p[0] for p in parts])
        fanins = np.concatenate([p[1] for p in parts], axis=1)
        ops.append(_LevelOp(types[key], nodes, fanins, key[0]))

    def cat(name: str) -> np.ndarray:
        return np.concatenate(
            [_shift(getattr(m, name), off) for m, off in zip(members, offsets)]
        )

    return CompiledCircuit(
        netlist=None,
        num_nodes=int(sum(m.num_nodes for m in members)),
        ops=ops,
        pi_ids=cat("pi_ids"),
        dff_ids=cat("dff_ids"),
        dff_src=cat("dff_src"),
        comb_ids=cat("comb_ids"),
    )


def pack_circuits(
    circuits: Sequence[Netlist | CompiledCircuit], cache: bool = True
) -> PackedSimPlan:
    """Pack member circuits into one compiled union simulation plan.

    Accepts netlists (compiled here) or pre-compiled circuits.  Cached
    plans are keyed by the tuple of member content hashes; ``cache=False``
    neither hashes nor touches the LRU.  Raises a :class:`ValueError` for
    empty packs and for packs above :data:`MAX_PACK_MEMBERS`.
    """
    if not circuits:
        raise ValueError("cannot pack zero circuits")
    if len(circuits) > MAX_PACK_MEMBERS:
        raise ValueError(
            f"cannot pack {len(circuits)} circuits: exceeds "
            f"MAX_PACK_MEMBERS={MAX_PACK_MEMBERS}; chunk the batch"
        )
    if cache:
        keys = tuple(
            (c.netlist if isinstance(c, CompiledCircuit) else c).fingerprint()
            for c in circuits
        )
        packed = _CACHE.get(keys)
        if packed is not None:
            return packed
    members = tuple(
        c if isinstance(c, CompiledCircuit) else compile_netlist(c)
        for c in circuits
    )
    compiled = members[0] if len(members) == 1 else _merge_members(members)
    offsets: list[int] = []
    pi_slices: list[slice] = []
    po_ids: list[np.ndarray] = []
    shifted_ops: list[tuple[np.ndarray, ...]] = []
    node_off = pi_off = 0
    for m in members:
        offsets.append(node_off)
        pi_slices.append(slice(pi_off, pi_off + m.pi_ids.size))
        po_ids.append(
            _shift(np.asarray(m.netlist.pos, dtype=np.int64), node_off)
        )
        shifted_ops.append(tuple(_shift(op.nodes, node_off) for op in m.ops))
        node_off += m.num_nodes
        pi_off += m.pi_ids.size
    packed = PackedSimPlan(
        compiled=compiled,
        members=members,
        offsets=tuple(offsets),
        sizes=tuple(m.num_nodes for m in members),
        pi_slices=tuple(pi_slices),
        po_ids=tuple(po_ids),
        shifted_ops=tuple(shifted_ops),
    )
    return _CACHE.insert(keys, packed) if cache else packed


def configure_sim_pack_cache(maxsize: int) -> None:
    """Bound the packed-plan cache to ``maxsize`` entries."""
    _CACHE.configure(maxsize)


def clear_sim_pack_cache() -> None:
    """Drop every cached packed plan and reset the hit/miss counters."""
    _CACHE.clear()


def sim_pack_cache_info() -> SimPackCacheInfo:
    """Current cache statistics (hits/misses/evictions/size/maxsize)."""
    return _CACHE.info()


# ----------------------------------------------------------------------
# packed execution
# ----------------------------------------------------------------------


class _PackedSource:
    """Stacks per-member stimulus blocks into union stimulus.

    Each member keeps its own :class:`PatternSource` (its own PCG64
    stream), so the per-member bitstreams are identical to standalone runs
    — block draws consume each stream in exactly the per-circuit order.
    """

    def __init__(self, sources: Sequence[PatternSource]) -> None:
        self.sources = list(sources)

    def next_block(self, cycles: int) -> np.ndarray:
        blocks = [s.next_block(cycles) for s in self.sources]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


#: Cap on what one prepared chunk of fault masks keeps alive — the raw
#: words of its stream windows plus the choice walk's rows — mirroring
#: ``SimPlan``'s history cap: chunks shrink on very large members, and on
#: packs whose members sit far apart in the stream, rather than ballooning
#: memory.
_CHUNK_BYTES_CAP = 8 << 20

#: AND rounds after which the chain drops the mask words already zero.  A
#: word survives ``r`` rounds with probability ``1 - (1 - 2**-r)**64``
#: (0.39 at r = 7, 0.06 at r = 10), and a zero word stays zero.
_COMPACT_AFTER = frozenset((7, 10, 13))

#: Mask words per piece of the AND chain (128 KiB of indices), so its
#: rows stay cache-resident.
_PIECE_WORDS = 16384

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class _PackedInjector:
    """Every member's fault masks, drawn in bulk from one raw stream.

    Bitwise contract: each member's masks equal those a standalone
    :class:`_FaultInjector` would draw per (cycle, group) in the member's
    compiled-op order (``k`` successive ``(m, words)`` draws fill like one
    C-order ``(k, m, words)`` draw).  Drawing them that way costs
    two generator calls per (cycle, member, group) — the dominant cost of
    packed fault sweeps — so this class collapses them using two PCG64
    facts (property-tested in ``tests/sim/test_packed_engine.py``):

    * full-range ``Generator.integers(0, 2**64, dtype=uint64)`` emits raw
      64-bit PCG64 outputs, one per element, in stream order, and
      consecutive calls split the stream exactly like one larger call;
    * scalar ``Generator.random()`` consumes one raw output ``u`` and
      returns ``(u >> 11) * 2**-53`` — so ``random() < w_lo`` is exactly
      the integer test ``(u >> 11) < ceil(w_lo * 2**53)``.

    A standalone injector's whole draw sequence is therefore one raw-word
    stream, carved by indexing: per group, one choice word selects ``k``;
    the next ``k*m*words`` raw words AND-reduce into the group's mask.
    Members share the fault seed, so every member reads the *same* stream
    and only its position in it differs.  One generator serves the pack:
    per chunk of cycles, each member's worst-case window ``[pos, pos +
    ncyc * max_per_cycle)`` merges with the others into disjoint
    intervals, each interval is drawn once (``advance`` positions the
    generator, backwards too), and each member walks its own offset of
    the drawn words, advancing its position by exactly what its
    standalone injector consumes.  Cycles are requested in nondecreasing
    order (the block loop never skips one), so chunks are contiguous and
    every member's stream is read in exactly the standalone order.

    At the paper's rates almost every mask is all-zero: one AND chain
    reduces all members' mask words of a chunk, dropping words that turned
    zero after the early rounds, and the survivors — exactly the non-zero
    masks — become, per prepared cycle, a mapping *union group index ->
    mask* of its non-zero masks only (:meth:`block`).
    """

    def __init__(
        self,
        packed: PackedSimPlan,
        fault_config: FaultConfig,
        words: int,
        total_cycles: int,
        budget: MemoryBudget | None = None,
    ) -> None:
        self.words = words
        self.total_cycles = total_cycles
        self.rng = np.random.default_rng(fault_config.seed)
        proto = _FaultInjector(fault_config.effective_cycle_rate, words, self.rng)
        self.k_lo = proto.k_lo
        drawing = self.k_lo is not None
        if drawing:
            self.k_hi = proto.k_hi
            #: ``rng.random() < w_lo`` on the raw word, in integers.
            self.lo_threshold = math.ceil(proto.w_lo * 2.0**53)
        #: Stream position of the generator, and per member the position
        #: of the member's next unread raw word.
        self.stream_at = 0
        self.pos = [0] * packed.num_members
        #: Per member: the worst-case raw words one cycle can consume.
        self.max_per_cycle: list[int] = []
        #: Per member with gates, per group: the walk's step past a draw of
        #: ``k_lo`` and of ``k_hi`` masks.
        self.steps: list[list[tuple[int, int]]] = []
        #: The members with gates (the ones that draw), in pack order.
        self.walkers: list[int] = []
        ops = packed.compiled.ops
        group_of = np.zeros(packed.num_nodes, dtype=np.int64)
        row_of = np.zeros(packed.num_nodes, dtype=np.int64)
        for g, op in enumerate(ops):
            group_of[op.nodes] = g
            row_of[op.nodes] = np.arange(op.nodes.size)
        self.group_words = np.array(
            [op.nodes.size * words for op in ops], dtype=np.int64
        )
        # Per mask *word* of every member, in member then compiled-op
        # order: its group's column in a chunk's choice matrix
        # (``expand``), its offset past the group's choice word
        # (``within``), the stride to the same word of the group's next
        # draw, and where it lands: union group and offset in that
        # group's flattened ``(m, words)`` mask.
        tables = []
        columns = 0
        for k, (member, targets) in enumerate(
            zip(packed.members, packed.shifted_ops)
        ):
            sizes = np.array(
                [op.nodes.size * words for op in member.ops], dtype=np.int64
            )
            raw = sizes.size + self.k_hi * int(sizes.sum()) if drawing else 0
            self.max_per_cycle.append(raw)
            if not raw:
                continue  # a member without gates draws nothing
            self.walkers.append(k)
            self.steps.append(
                [(1 + self.k_lo * mw, 1 + self.k_hi * mw) for mw in sizes.tolist()]
            )
            rows = np.concatenate(targets).repeat(words)
            expand = np.repeat(np.arange(sizes.size), sizes)
            within = np.arange(expand.size) - (np.cumsum(sizes) - sizes)[expand]
            word = np.arange(expand.size) % words
            tables.append(
                (expand + columns, within + 1, sizes[expand], group_of[rows],
                 row_of[rows] * words + word)
            )
            columns += sizes.size
        if tables:
            (self.expand, self.within, self.stride, self.dest_group,
             self.dest_pos) = (np.concatenate(t) for t in zip(*tables))
            # The AND chain runs over pieces of whole cycles.
            self.piece_cycles = max(1, _PIECE_WORDS // self.expand.size)
            self.piece_stride = np.tile(self.stride, self.piece_cycles)
        # A chunk keeps alive its raw windows (8 bytes per word, plus one
        # for the walk's lookup) and, per cycle and group, the choice
        # walk's position (a list entry, its int, a matrix cell: ~6
        # words).  The static length fits the largest member alone;
        # _prepare shortens a chunk whose merged windows do not fit.
        cap = _CHUNK_BYTES_CAP
        if budget is not None and budget.history_bytes is not None:
            cap = min(cap, budget.history_bytes)
        self.cap_words = cap // 8
        self.walk_words = 6 * columns
        per_cycle = max(self.max_per_cycle) * 9 // 8 + self.walk_words
        self.chunk_cycles = max(1, min(128, self.cap_words // max(per_cycle, 1)))
        #: Raw words the current chunk drew.
        self.raw_words = 0
        self.hits: list[dict[int, np.ndarray]] = []
        self.base = 0
        self.end = 0

    def _windows(self, ncyc: int) -> list[list[int]]:
        """The members' worst-case windows of ``ncyc`` cycles, merged into
        sorted disjoint ``[lo, hi)`` stream intervals."""
        merged: list[list[int]] = []
        spans = sorted(
            (self.pos[k], self.pos[k] + ncyc * self.max_per_cycle[k])
            for k in self.walkers
        )
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return merged

    def _draw(self, lo: int, hi: int) -> np.ndarray:
        """Raw words ``[lo, hi)`` of the stream.  PCG64 steps once per
        output and ``advance`` walks its state mod 2**128, so a negative
        delta steps back."""
        self.rng.bit_generator.advance(lo - self.stream_at)
        self.stream_at = hi
        return self.rng.integers(0, 2**64, size=hi - lo, dtype=np.uint64)

    def _prepare(self, start: int) -> None:
        """Draw and parse flip masks for the next chunk of cycles.

        Per member, a scalar walk over the raw buffer (one byte per raw
        word: does it pick ``k_lo``) records where each (cycle, group)
        mask's choice word sits — the only sequentially-dependent part —
        then :meth:`_and_chain` reduces every mask word of the chunk.  The
        walk consumes raw words in exactly the standalone draw order; the
        vectorized pass only rearranges already-drawn words, so it cannot
        move a bit.
        """
        ncyc = min(self.chunk_cycles, max(self.total_cycles - start, 1))
        windows = self._windows(ncyc) if self.k_lo is not None else []
        while ncyc > 1:
            spans = [hi - lo for lo, hi in windows]
            # A multi-window chunk also holds one window while it copies.
            raw = sum(spans) + (max(spans) if len(spans) > 1 else 0)
            need = raw * 9 // 8 + ncyc * self.walk_words
            if need <= self.cap_words:
                break
            ncyc = max(1, ncyc * self.cap_words // need)
            windows = self._windows(ncyc)
        self.base = start
        self.end = start + ncyc
        self.hits = [{} for _ in range(ncyc)]
        self.raw_words = sum(hi - lo for lo, hi in windows)
        if not windows:
            return  # rate zero or no gates: nothing is ever drawn
        starts = np.cumsum([0] + [hi - lo for lo, hi in windows]).tolist()
        if len(windows) == 1:
            buf = self._draw(*windows[0])
        else:
            buf = np.empty(starts[-1], dtype=np.uint64)
            for (lo, hi), off in zip(windows, starts):
                buf[off : off + hi - lo] = self._draw(lo, hi)
        lows = [lo for lo, _ in windows]
        cursor = []
        for k in self.walkers:
            j = bisect.bisect_right(lows, self.pos[k]) - 1
            cursor.append(starts[j] + self.pos[k] - lows[j])
        begin = list(cursor)
        # Per raw word: would a choice word there pick k_lo?  ``(u >> 11)
        # < t`` is ``u < t << 11`` on integers.
        picks_lo = buf < (self.lo_threshold << 11)
        flags = picks_lo.tobytes()
        choice: list[int] = []
        append = choice.append
        for _ in range(ncyc):
            for w, steps in enumerate(self.steps):
                pos = cursor[w]
                for lo_step, hi_step in steps:
                    append(pos)
                    pos += lo_step if flags[pos] else hi_step
                cursor[w] = pos
        for w, k in enumerate(self.walkers):
            self.pos[k] += cursor[w] - begin[w]
        at = np.asarray(choice, dtype=np.int64).reshape(ncyc, -1)
        cyc, col, val = self._and_chain(buf, at, picks_lo[at])
        if not val.size:
            return
        # Index the non-zero mask words by (cycle, union group): one
        # zeroed block holds every hit mask, each dict value is its slice.
        ngroups = self.group_words.size
        key = cyc * ngroups + self.dest_group[col]
        order = np.argsort(key)
        key, dest, val = key[order], self.dest_pos[col[order]], val[order]
        first = np.r_[True, key[1:] != key[:-1]]
        cyc, group = np.divmod(key[first], ngroups)
        size = self.group_words[group]
        off = np.cumsum(size) - size
        masks = np.zeros(int(size.sum()), dtype=np.uint64)
        masks[off[np.cumsum(first) - 1] + dest] = val
        for c, g, o, n in zip(
            cyc.tolist(), group.tolist(), off.tolist(), size.tolist()
        ):
            self.hits[c][g] = masks[o : o + n].reshape(-1, self.words)

    def _and_chain(
        self, buf: np.ndarray, at: np.ndarray, chose_lo: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """AND-reduce every mask word of the chunk whose choice words sit
        at ``at`` (``(ncyc, groups)``), a piece of cycles at a time.

        Returns the non-zero mask words as ``(cycle, column, value)``
        arrays.  Zero words leave the chain at the rounds in
        :data:`_COMPACT_AFTER`; the ``k_hi``-th word is ANDed in only where
        the walk chose ``k_hi`` (elsewhere it already belongs to the next
        draw).
        """
        cols = self.expand.size
        found = []
        for c0 in range(0, at.shape[0], self.piece_cycles):
            idx = at[c0 : c0 + self.piece_cycles, self.expand]
            idx += self.within
            idx = idx.ravel()
            stride = self.piece_stride[: idx.size]
            acc = np.full(idx.size, _ALL_ONES)
            flat = None
            for r in range(1, self.k_lo + 1):
                acc &= buf.take(idx)
                idx += stride
                if r in _COMPACT_AFTER or r == self.k_lo:
                    keep = np.flatnonzero(acc != 0)
                    flat = keep if flat is None else flat[keep]
                    idx, acc, stride = idx[keep], acc[keep], stride[keep]
            cyc, col = np.divmod(flat, cols)
            cyc += c0
            chose_hi = np.flatnonzero(~chose_lo[cyc, self.expand[col]])
            acc[chose_hi] &= buf.take(idx[chose_hi])
            live = np.flatnonzero(acc != 0)
            found.append((cyc[live], col[live], acc[live]))
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def block(self, start: int, cycles: int) -> list[dict[int, np.ndarray]]:
        """Sparse flips of cycles ``[start, start + cycles)``: per cycle,
        union group index -> the group's ``(m, words)`` mask, non-zero
        masks only (copies, so they outlive the chunk they came from)."""
        out = []
        for cycle in range(start, start + cycles):
            while cycle >= self.end:
                self._prepare(self.end)
            out.append(self.hits[cycle - self.base])
        return out


def _check_pack_inputs(
    packed: PackedSimPlan, workloads: Sequence[Workload]
) -> None:
    if len(workloads) != packed.num_members:
        raise ValueError(
            f"got {len(workloads)} workloads for {packed.num_members} "
            "packed circuits"
        )
    for k, (member, wl) in enumerate(zip(packed.members, workloads)):
        if wl.num_pis != member.pi_ids.size:
            raise ValueError(
                f"workload {k} has {wl.num_pis} PI probabilities, member "
                f"circuit has {member.pi_ids.size} PIs"
            )


def _make_sources(
    packed: PackedSimPlan,
    workloads: Sequence[Workload],
    streams: int,
    replay_seeds: Sequence[int | None] | None,
) -> _PackedSource:
    if replay_seeds is not None and len(replay_seeds) != packed.num_members:
        raise ValueError("replay_seeds must have one entry per member")
    return _PackedSource(
        [
            PatternSource(
                wl,
                streams=streams,
                seed=None if replay_seeds is None else replay_seeds[k],
            )
            for k, wl in enumerate(workloads)
        ]
    )


def _reset_members(
    sim: Simulator,
    packed: PackedSimPlan,
    init_state: str,
    seed: int,
    machines: int = 1,
) -> None:
    """Per-member reset: each member draws from its own fresh generator.

    Bitwise-equivalent to each member's own :meth:`Simulator.reset` —
    members share the config seed, so every member's generator starts
    from the same state, but its draw covers only that member's DFFs.
    When the word axis holds ``machines`` machines side by side (the
    lockstep fault run), every machine starts from the same draw.
    """
    sim.reset()
    if init_state == "random":
        for member, off in zip(packed.members, packed.offsets):
            dffs = member.dff_ids
            if dffs.size:
                rng = np.random.default_rng(seed)
                shape = (dffs.size, sim.words // machines)
                state = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
                sim.values[dffs + np.int64(off)] = np.tile(state, machines)
    elif init_state != "zero":
        raise ValueError(f"unknown init_state {init_state!r}")


def _run_packed(
    packed: PackedSimPlan,
    workloads: Sequence[Workload],
    config: SimConfig,
    replay_seeds: Sequence[int | None] | None,
    block_cycles: int | None,
    budget: MemoryBudget | None = None,
) -> list[SimResult]:
    """The block executor's fault-free run over a pack of >= 1 members."""
    _check_pack_inputs(packed, workloads)
    sim = Simulator(packed.compiled, streams=config.streams)
    _reset_members(sim, packed, config.init_state, config.seed)
    source = _make_sources(packed, workloads, config.streams, replay_seeds)
    counter = ActivityCounter(packed.num_nodes, sim.words)
    sim.run(
        config.cycles,
        source,
        counter,
        warmup=config.warmup,
        block_cycles=block_cycles,
        budget=budget,
    )
    return [
        counter.result(member.netlist, sim.streams, packed.member_slice(k))
        for k, member in enumerate(packed.members)
    ]


def simulate_packed(
    circuits: Sequence[Netlist | CompiledCircuit],
    workloads: Sequence[Workload],
    config: SimConfig | None = None,
    *,
    replay_seeds: Sequence[int | None] | None = None,
    block_cycles: int | None = None,
    packed: PackedSimPlan | None = None,
    cache: bool = True,
) -> list[SimResult]:
    """Simulate K (circuit, workload) pairs in one block-stepped sweep.

    Bitwise-identical to ``[simulate(c, w, config) for c, w in zip(...)]``
    (the packed-engine tests pin this against golden digests): stimulus,
    DFF initialization and statistics are all per-member as documented in
    the module docstring.  All members share one :class:`SimConfig`.
    """
    if packed is None:
        packed = pack_circuits(circuits, cache=cache)
    return _run_packed(
        packed, workloads, config or SimConfig(), replay_seeds, block_cycles
    )


def _run_packed_faults(
    packed: PackedSimPlan,
    workloads: Sequence[Workload],
    sim_config: SimConfig,
    fault_config: FaultConfig,
    replay_seeds: Sequence[int | None] | None,
    block_cycles: int | None,
    budget: MemoryBudget | None = None,
) -> list[FaultSimResult]:
    """The block executor's golden/faulty lockstep pass over >= 1 members.

    One simulator, one plan: ``values`` is ``(N, 2W)``, low ``W`` words
    the golden machine and high ``W`` the faulty one, so every gather
    and kernel serves both (and a ``budget`` bounds both once).
    Per episode both halves reset to the same per-member state, per block
    both get the same stacked stimulus, and the injector's masks — drawn
    per (cycle, group) in exactly the per-cycle engine's order — are
    XOR-ed into the faulty half where non-zero.  Per-node error counts
    reduce over the two halves of the union history; PO-mismatch
    reliability reduces per member over that member's PO rows.  All
    accumulators are integers, so block summation is arithmetically
    identical to per-cycle summation.
    """
    _check_pack_inputs(packed, workloads)
    words = words_for(sim_config.streams)
    streams = words * WORD_BITS
    sim = Simulator(packed.compiled, streams=2 * streams)
    plan = SimPlan(packed.compiled, sim.words, block_cycles, budget=budget)
    schedule = _episode_schedule(sim_config, fault_config)
    total_cycles = sum(sim_config.warmup + observe for observe in schedule)
    injector = _PackedInjector(packed, fault_config, words, total_cycles, budget)
    source = _make_sources(packed, workloads, sim_config.streams, replay_seeds)
    counts = np.zeros((4, packed.num_nodes), dtype=np.int64)
    obs0, obs1, e01, e10 = counts
    stats = [
        _FaultStats(member.netlist, pos, counts[:, packed.member_slice(k)])
        for k, (member, pos) in enumerate(zip(packed.members, packed.po_ids))
    ]
    cycle = 0
    for episode, observe in enumerate(schedule):
        # Pattern boundary: both machines restart from the reset state,
        # every member from its own fresh generator.
        _reset_members(
            sim, packed, sim_config.init_state, sim_config.seed + episode, 2
        )
        total = sim_config.warmup + observe
        done = 0
        while done < total:
            b = min(plan.block_cycles, total - done)
            history = plan.history[:b]
            sim.run_block(
                np.tile(source.next_block(b), 2),
                plan,
                history=history,
                flips=injector.block(cycle, b),
            )
            lo = max(sim_config.warmup - done, 0)
            if lo < b:
                g = history[lo:, :, :words]
                f = history[lo:, :, words:]
                samples = g.shape[0] * streams
                ones = popcount_int64(g, axis=2).sum(axis=0)
                obs1 += ones
                obs0 += samples - ones
                diff = g ^ f
                e01 += popcount_int64(diff & f, axis=2).sum(axis=0)
                e10 += popcount_int64(diff & g, axis=2).sum(axis=0)
                for member in stats:
                    if member.po_ids.size:
                        any_bad = np.bitwise_or.reduce(
                            diff[:, member.po_ids], axis=1
                        )
                        member.po_total += samples
                        member.po_ok += samples - int(popcount_int64(any_bad))
            cycle += b
            done += b
    return [member.result() for member in stats]


def simulate_with_faults_packed(
    circuits: Sequence[Netlist | CompiledCircuit],
    workloads: Sequence[Workload],
    sim_config: SimConfig | None = None,
    fault_config: FaultConfig | None = None,
    *,
    replay_seeds: Sequence[int | None] | None = None,
    block_cycles: int | None = None,
    packed: PackedSimPlan | None = None,
    cache: bool = True,
) -> list[FaultSimResult]:
    """Golden/faulty lockstep fault simulation of K members in one sweep.

    Results are bitwise-identical to K sequential
    :func:`repro.sim.faults.simulate_with_faults` calls.
    """
    if packed is None:
        packed = pack_circuits(circuits, cache=cache)
    return _run_packed_faults(
        packed,
        workloads,
        sim_config or SimConfig(),
        fault_config or FaultConfig(),
        replay_seeds,
        block_cycles,
    )

"""Cycle-accurate, bit-parallel sequential logic simulation.

The ground-truth engine of the whole reproduction: logic and transition
probabilities for training labels (Section III-A), power-estimation ground
truth (Section V-A) and the fault-free half of reliability ground truth
(Section V-B) all come from here.

Semantics (zero-delay, synchronous, single clock):

1. at cycle *k* every PI presents its pattern bit, every DFF presents its
   current state ``S_k``;
2. combinational logic settles level-by-level, defining a value ``V_k[v]``
   for every node;
3. the next state latches the DFF's data input: ``S_{k+1} = V_k[d(ff)]``.

Transition counts compare ``V_{k-1}`` and ``V_k`` per node and stream, which
is exactly the paper's per-node 0→1 / 1→0 transition probability definition.
Bit-packing runs 64·``words`` independent streams of the same workload in
parallel, so "10,000 cycles" can be realised as e.g. 64 × 157 cycles with
identical statistics (stationary workloads) and ~64x less wall-clock.

One executor implements these semantics: the **block executor**
(:class:`SimPlan` + :meth:`Simulator.run_block`, driven by
:meth:`Simulator.run`), the only gate-evaluation loop in the library.
Stimulus is pregenerated in blocks, each level runs as one gather of its
fanins and gate kernels bound at plan time that write straight into their
groups' slices of a plan-order value buffer, and statistics reduce once
per block over a value-history buffer.  A
:class:`~repro.memory.MemoryBudget` only changes how the plan is cut
(levels cut to a smaller gather arena, a shallower history);
:func:`simulate` is the one-member case of
:func:`repro.sim.pack.simulate_packed`, so single circuits, packs and
budgeted large designs all run the same loop — fault labelling once over
a doubled word axis, golden machine in the low words, faulty in the high
words (:func:`repro.sim.pack.simulate_with_faults_packed`).

The executor is float64-bitwise-identical to the per-cycle reference
loop in ``tests/sim/reference.py`` (same RNG consumption order, same
integer accumulators), the oracle whose value traces the golden-hash
tests freeze.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.circuit.gates import GateKernel, GateType, gate_kernel
from repro.circuit.levelize import levelize
from repro.circuit.netlist import GATE_TYPES, Netlist, Structure, split_rows, structure_of
from repro.memory import MemoryBudget
from repro.sim.bitvec import popcount_int64, words_for
from repro.sim.workload import PatternSource, Workload

__all__ = [
    "CompiledCircuit",
    "compile_netlist",
    "Simulator",
    "SimPlan",
    "DEFAULT_BLOCK_CYCLES",
    "ActivityCounter",
    "SimConfig",
    "SimResult",
    "simulate",
]

#: Rank of each :data:`GATE_TYPES` code in gate-name order — the order
#: evaluation groups of one level are emitted in.
_VALUE_RANK = np.argsort(np.argsort([t.value for t in GATE_TYPES]))


@dataclass(frozen=True)
class _LevelOp:
    """One vectorized evaluation group: gates of equal type/arity at a level.

    ``level`` is the combinational level the group settles at; the packed
    engine (:mod:`repro.sim.pack`) merges groups of equal
    ``(level, gate_type, arity)`` across member circuits, which is safe
    because within a level no gate reads another's output.
    """

    gate_type: GateType
    nodes: np.ndarray  # (m,) int64
    fanins: np.ndarray  # (arity, m) int64
    level: int = 0


@dataclass
class CompiledCircuit:
    """A netlist lowered to flat evaluation groups in level order.

    ``netlist`` is ``None`` when compiled from a bare :class:`Structure` —
    the union circuit a :class:`repro.sim.pack.PackedSimPlan` evaluates;
    member results are always attributed to the callers' netlists.
    """

    netlist: Netlist | None
    num_nodes: int
    ops: list[_LevelOp]
    pi_ids: np.ndarray
    dff_ids: np.ndarray
    dff_src: np.ndarray
    comb_ids: np.ndarray


def compile_netlist(circuit: Netlist | Structure) -> CompiledCircuit:
    """Group combinational gates by (level, type, arity) for vector eval."""
    structure = structure_of(circuit)
    comb_levels = levelize(structure).comb_forward
    ptr, idx = structure.fanin_ptr, structure.fanin_idx
    ops: list[_LevelOp] = []
    if comb_levels:
        nodes = np.concatenate(comb_levels)
        # Group label: position among the levels that hold gates.
        label = np.repeat(np.arange(len(comb_levels)), [g.size for g in comb_levels])
        code, arity = structure.type_code[nodes], structure.arity[nodes]
        # Stable, so a group keeps its level's ascending node order.
        order = np.lexsort((arity, _VALUE_RANK[code], label))
        keys = np.stack([label, code, arity])[:, order]
        starts = np.flatnonzero((np.diff(keys, prepend=-1) != 0).any(axis=0))
        sizes = np.diff(starts, append=nodes.size)
        for members, (level, gt, k) in zip(
            split_rows(nodes[order], sizes), keys[:, starts].T.tolist()
        ):
            fanins = idx[ptr[members] + np.arange(k, dtype=np.int64)[:, None]]
            ops.append(_LevelOp(GATE_TYPES[gt], members, fanins, level))
    dff_ids = structure.ids(GateType.DFF)
    return CompiledCircuit(
        netlist=None if circuit is structure else circuit,
        num_nodes=structure.num_nodes,
        ops=ops,
        pi_ids=structure.ids(GateType.PI),
        dff_ids=dff_ids,
        dff_src=idx[ptr[dff_ids]],
        comb_ids=structure.comb_ids,
    )


#: Cycles evaluated per block by default (one history buffer's depth).
DEFAULT_BLOCK_CYCLES = 64

#: Memory bound for one plan's value-history buffer; the block depth is
#: capped so huge netlists keep flat memory instead of scaling with the
#: requested cycle count.
MAX_BLOCK_BYTES = 8 << 20


class _Gates(NamedTuple):
    """A run of one group's gates inside a :class:`_Step`."""

    kernel: GateKernel  # gate_kernel(type, arity): checked at plan time
    in_buf: np.ndarray  # (arity, m, words) view of the step's gather rows
    out: np.ndarray  # (m, words) slice of the plan-order value buffer
    op: int  # index of the gates' group in ``compiled.ops``
    #: These gates within the group — their rows of the group's flip
    #: mask; ``None`` when the run is the whole group.
    sl: slice | None


class _Step(NamedTuple):
    """One gather and the kernels it feeds: a level, or a chunk of one."""

    flat: np.ndarray  # (rows,) plan positions of every gate's fanins
    gather: np.ndarray  # (rows, words) view of the arena
    gates: tuple[_Gates, ...]


class SimPlan:
    """Preallocated block-execution state for one compiled circuit.

    The per-cycle reference pays, every cycle and for every evaluation
    group, a fresh fanin gather list, a fresh output array, a scatter and
    a byte-LUT popcount.  A plan hoists all of that out of the loop.  It
    gives every node a *plan position* — PIs in ``pi_ids`` order, DFFs in
    ``dff_ids`` order, each group of ``compiled.ops`` in op order, then any
    node in none of these — so the PIs, the DFFs and every group occupy a
    contiguous slice of the plan-order ``(nodes, words)`` value buffer
    :attr:`values`.  A cycle is then a list of :class:`_Step`\\ s, one per
    level: one ``np.take`` of the level's flat fanin positions into a
    gather buffer, then each group's plan-bound kernel (a bad arity fails
    here, not in the cycle loop) reading its ``(arity, m, words)`` view of
    those rows and writing straight into the group's value slice.  The
    plan also holds a ``(block_cycles, nodes, words)`` value-history
    buffer that statistics are reduced over once per *block*, and the DFF
    next-state staging buffer.  Building a plan never touches values —
    execution through a plan is bitwise-identical to per-cycle stepping.

    ``block_cycles`` is clamped so the history stays under
    ``max_block_bytes`` regardless of netlist size.

    A :class:`~repro.memory.MemoryBudget` tightens both bounds further:
    ``history_bytes`` caps the history window's depth (windows are flushed
    to observers every block, so statistics and tracing survive any depth
    down to one cycle).  Every step gathers into one shared arena, sized
    to the widest level; when that does not fit ``plan_bytes`` the plan is
    **streamed**: the arena holds ``plan_bytes`` of gather rows (never
    less than one gate of the widest group) and wider levels are cut into
    steps of whole gates.  Within a level no gate reads another's output,
    so chunking cannot change a bit.  (The lockstep fault run builds one
    plan over ``2 * W`` words, so one budget bounds both machines
    together.)
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        words: int,
        block_cycles: int | None = None,
        max_block_bytes: int = MAX_BLOCK_BYTES,
        budget: MemoryBudget | None = None,
    ) -> None:
        if block_cycles is not None and block_cycles < 1:
            raise ValueError("block_cycles must be >= 1")
        self.compiled = compiled
        self.words = words
        bytes_per_cycle = max(1, compiled.num_nodes * words * 8)
        cap = max(1, max_block_bytes // bytes_per_cycle)
        want = DEFAULT_BLOCK_CYCLES if block_cycles is None else block_cycles
        self.block_cycles = max(1, min(want, cap))
        if budget is not None:
            self.block_cycles = budget.cap_count(
                bytes_per_cycle, self.block_cycles
            )
        n = compiled.num_nodes
        self.history = np.empty((self.block_cycles, n, words), dtype=np.uint64)
        self.state_buf = np.empty((compiled.dff_ids.size, words), dtype=np.uint64)
        ops = compiled.ops
        placed = np.concatenate(
            [compiled.pi_ids, compiled.dff_ids] + [op.nodes for op in ops]
        )
        uses = np.bincount(placed, minlength=n)
        if uses.max(initial=0) > 1:
            raise ValueError("PIs, DFFs and evaluation groups must be disjoint")
        #: Plan position -> node id, and node id -> plan position.
        self.order = np.concatenate([placed, np.flatnonzero(uses == 0)])
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = np.arange(n)
        #: The plan-order ``(nodes, words)`` value buffer a block runs on.
        self.values = np.empty((n, words), dtype=np.uint64)
        num_pis = compiled.pi_ids.size
        self.pis = slice(0, num_pis)
        self.dffs = slice(num_pis, num_pis + compiled.dff_ids.size)
        self.dff_src = self.position[compiled.dff_src]
        # Bind every group to its kernel, fanin positions and value slice.
        # A level ends at the first group that reads a position at or past
        # the level's own first one, i.e. a node the level writes.
        consts: list[_Gates] = []
        levels: list[list[tuple[GateKernel, np.ndarray, int, int]]] = []
        level_lo = lo = self.dffs.stop
        for index, op in enumerate(ops):
            arity, m = op.fanins.shape
            kernel = gate_kernel(op.gate_type, arity)
            if arity == 0:
                no_inputs = np.empty((0, m, words), dtype=np.uint64)
                out = self.values[lo : lo + m]
                consts.append(_Gates(kernel, no_inputs, out, index, None))
            else:
                fanins = self.position[op.fanins]
                if not levels or fanins.max() >= level_lo:
                    levels.append([])
                    level_lo = lo
                levels[-1].append((kernel, fanins, lo, index))
            lo += m
        rows_cap = max(
            (sum(f.size for _, f, _, _ in level) for level in levels), default=0
        )
        self.streamed = budget is not None and not budget.allows_plan(
            rows_cap * words * 8
        )
        if self.streamed:
            widest = max(f.shape[0] for level in levels for _, f, _, _ in level)
            rows_cap = max(budget.plan_bytes // (words * 8), widest)
        #: The gather rows every step is carved from.
        self.arena = np.empty((rows_cap, words), dtype=np.uint64)
        #: Per cycle, in order: the constant groups (when there are any) as
        #: one gather-free step, then one step per level — or, streamed,
        #: per chunk of whole gates that fits the arena.
        self.steps: list[_Step] = []
        if consts:
            self.steps.append(
                _Step(np.empty(0, dtype=np.int64), self.arena[:0], tuple(consts))
            )
        #: Leading steps that hold constants only (0 or 1): a fault-free
        #: block writes them once instead of once per cycle.
        self.const_steps = len(self.steps)
        for level in levels:
            flats: list[np.ndarray] = []
            gates: list[_Gates] = []
            used = 0
            for kernel, fanins, lo, index in level:
                arity, m = fanins.shape
                done = 0
                while done < m:
                    take = min(m - done, (rows_cap - used) // arity)
                    if take == 0:
                        self._add_step(flats, gates, used)
                        flats, gates, used = [], [], 0
                        continue
                    sl = slice(done, done + take)
                    flats.append(fanins[:, sl].reshape(-1))
                    in_buf = self.arena[used : used + arity * take]
                    gates.append(
                        _Gates(
                            kernel,
                            in_buf.reshape(arity, take, words),
                            self.values[lo + done : lo + done + take],
                            index,
                            None if take == m else sl,
                        )
                    )
                    used += arity * take
                    done += take
            self._add_step(flats, gates, used)

    def _add_step(self, flats: list, gates: list, rows: int) -> None:
        self.steps.append(
            _Step(np.concatenate(flats), self.arena[:rows], tuple(gates))
        )

    def resident_bytes(self) -> int:
        """Bytes of the buffers this plan keeps resident.

        History window + DFF staging + the plan-order value buffer + the
        gather arena.  Excludes the ``(num_nodes, words)`` node-order value
        array the simulator owns.
        """
        return (
            self.history.nbytes
            + self.state_buf.nbytes
            + self.values.nbytes
            + self.arena.nbytes
        )


class Simulator:
    """Stateful bit-parallel simulator over a compiled circuit.

    Args:
        circuit: netlist or pre-compiled circuit.
        streams: number of parallel bit lanes (rounded up to words of 64).

    ``values`` holds the current ``(num_nodes, words)`` uint64 node values
    in node order; :meth:`run` and :meth:`run_block` advance it.
    """

    def __init__(self, circuit: Netlist | CompiledCircuit, streams: int = 64):
        self.compiled = (
            circuit
            if isinstance(circuit, CompiledCircuit)
            else compile_netlist(circuit)
        )
        self.words = words_for(streams)
        # All 64 lanes of every word are always simulated; rounding the
        # stream count up keeps sample-count bookkeeping exact.
        self.streams = self.words * 64
        self.values = np.zeros(
            (self.compiled.num_nodes, self.words), dtype=np.uint64
        )

    def reset(
        self,
        init_state: str = "zero",
        rng: np.random.Generator | None = None,
    ) -> None:
        """Reset node values; DFFs to zero or per-stream random bits."""
        self.values[:] = 0
        if init_state == "random":
            rng = rng or np.random.default_rng(0)
            dffs = self.compiled.dff_ids
            self.values[dffs] = rng.integers(
                0, 2**64, size=(dffs.size, self.words), dtype=np.uint64
            )
        elif init_state != "zero":
            raise ValueError(f"unknown init_state {init_state!r}")

    def run_block(
        self,
        pi_block: np.ndarray,
        plan: SimPlan,
        *,
        history: np.ndarray | None = None,
        flips: Sequence[Mapping[int, np.ndarray]] | None = None,
    ) -> np.ndarray:
        """Advance ``len(pi_block)`` clock cycles through ``plan`` buffers.

        ``pi_block`` is ``(cycles, num_pis, words)`` uint64 stimulus.  The
        settled (pre-latch) values of block cycle ``b`` are copied into
        ``history[b]`` (node order) when a history array is given; DFFs
        latch at the end of every cycle.  The block runs on the plan's
        plan-order value buffer: one take from :attr:`values` in, one back
        out, so :attr:`values` is in node order before and after the call.
        Value sequences are bitwise-identical to per-cycle stepping: the
        only differences are preallocated buffers (one ``np.take`` per
        level, each group's plan-bound kernel writing its value slice) and
        the constant gates being written once instead of re-evaluated.

        ``flips`` makes the pass the golden/faulty lockstep: the word axis
        is two machines side by side (the caller writes stimulus and reset
        state to both halves) and ``flips[b]`` maps the index of every
        group with a non-zero flip mask in block cycle ``b`` to that
        ``(m, words // 2)`` mask, XOR-ed into the high (faulty) half of the
        group's fresh outputs; other groups cost nothing.  Constants are
        then re-materialized every cycle, so a flipped one lasts a cycle.

        Raises ``ValueError`` when ``pi_block`` is not ``(cycles, num_pis,
        words)``, ``history`` has fewer than ``cycles`` rows of ``(nodes,
        words)``, or ``flips`` is shorter than the block.
        """
        if plan.compiled is not self.compiled or plan.words != self.words:
            raise ValueError("plan was built for a different simulator")
        cycles = len(pi_block)
        row = (self.compiled.num_nodes, self.words)
        stim = (self.compiled.pi_ids.size, self.words)
        if np.shape(pi_block)[1:] != stim:
            raise ValueError(
                f"pi_block has shape {np.shape(pi_block)}, expected "
                f"(cycles, {stim[0]}, {stim[1]})"
            )
        if history is not None and (
            len(history) < cycles or history.shape[1:] != row
        ):
            raise ValueError(
                f"history has shape {history.shape}, expected at least "
                f"({cycles}, {row[0]}, {row[1]})"
            )
        if flips is not None and len(flips) < cycles:
            raise ValueError(
                f"flips covers {len(flips)} cycles of a {cycles}-cycle block"
            )
        vals = plan.values
        position = plan.position
        self.values.take(plan.order, 0, vals, "clip")
        pis, dffs = plan.pis, plan.dffs
        dff_src = plan.dff_src
        state_buf = plan.state_buf
        has_pis = pis.stop > 0
        has_dffs = dffs.stop > dffs.start
        steps = plan.steps
        if flips is None:
            # Constants never change: write them once, skip them per cycle.
            for step in steps[: plan.const_steps]:
                for gates in step.gates:
                    gates.kernel(gates.in_buf, gates.out)
            steps = steps[plan.const_steps :]
        half = self.words // 2
        hit: Mapping[int, np.ndarray] = {}
        for b in range(cycles):
            if has_pis:
                vals[pis] = pi_block[b]
            if flips is not None:
                hit = flips[b]
            for flat, gather, gates in steps:
                vals.take(flat, 0, gather, "clip")
                for kernel, in_buf, out, op, sl in gates:
                    kernel(in_buf, out)
                    if op in hit:
                        # However the group is chunked, each run of its
                        # gates takes its rows of the group's mask.
                        mask = hit[op]
                        out[:, half:] ^= mask if sl is None else mask[sl]
            if history is not None:
                vals.take(position, 0, history[b], "clip")
            if has_dffs:
                vals.take(dff_src, 0, state_buf, "clip")
                vals[dffs] = state_buf
        vals.take(position, 0, self.values, "clip")
        return self.values

    def run(
        self,
        cycles: int,
        source: PatternSource | np.ndarray,
        counter: "ActivityCounter | None" = None,
        *,
        warmup: int = 0,
        plan: SimPlan | None = None,
        block_cycles: int | None = None,
        budget: MemoryBudget | None = None,
        observers: "list | None" = None,
    ) -> "ActivityCounter | None":
        """Block-stepped execution of ``warmup + cycles`` clock cycles.

        ``source`` is either a :class:`PatternSource` — stimulus is drawn
        in blocks via :meth:`~repro.sim.workload.PatternSource.next_block`,
        which consumes the generator stream in exactly the per-cycle order,
        so bitstreams match the per-cycle engine bit-for-bit — or a
        precompiled ``(warmup + cycles, num_pis, words)`` stimulus array
        (fixed vectors).  Observed cycles (the ones past ``warmup``)
        are accumulated into ``counter`` whole blocks at a time, as is
        every extra ``observers`` entry (anything with an
        ``observe_block(history)`` method — e.g. a
        :class:`~repro.sim.vcd.VcdTracer`), so value histories reach
        observers even when a :class:`~repro.memory.MemoryBudget` shrinks
        the window to a spill buffer of a few cycles.  The caller owns
        :meth:`reset`; passing an explicit ``plan`` amortizes buffer
        construction across runs.  Returns ``counter``.
        """
        if cycles < 0 or warmup < 0:
            raise ValueError("cycles and warmup must be >= 0")
        if plan is not None and (block_cycles is not None or budget is not None):
            raise ValueError(
                "pass either a prebuilt plan or block_cycles/budget, not "
                "both (a plan's buffers are fixed at construction)"
            )
        plan = plan or SimPlan(
            self.compiled, self.words, block_cycles, budget=budget
        )
        from_source = hasattr(source, "next_block")
        total = warmup + cycles
        if not from_source:
            stim = np.asarray(source, dtype=np.uint64)
            expected = (total, self.compiled.pi_ids.size, self.words)
            if stim.shape != expected:
                raise ValueError(
                    f"stimulus array has shape {stim.shape}, expected {expected}"
                )
        done = 0
        while done < total:
            b = min(plan.block_cycles, total - done)
            block = (
                source.next_block(b) if from_source else stim[done : done + b]
            )
            lo = max(warmup - done, 0)
            # Skip the per-cycle history copy when nothing observes it
            # (no counter/observers, or the block lies entirely in warmup).
            has_sinks = counter is not None or observers
            observing = has_sinks and lo < b
            hist = plan.history[:b] if observing else None
            self.run_block(block, plan, history=hist)
            if observing:
                if counter is not None:
                    counter.observe_block(hist[lo:])
                for obs in observers or ():
                    obs.observe_block(hist[lo:])
            done += b
        return counter


class ActivityCounter:
    """Accumulates per-node logic-1 and transition counts across cycles."""

    def __init__(self, num_nodes: int, words: int) -> None:
        self.ones = np.zeros(num_nodes, dtype=np.int64)
        self.tr01 = np.zeros(num_nodes, dtype=np.int64)
        self.tr10 = np.zeros(num_nodes, dtype=np.int64)
        self.cycles = 0
        self.pairs = 0
        self._prev: np.ndarray | None = None

    def observe_block(self, history: np.ndarray) -> None:
        """Feed a ``(block, num_nodes, words)`` run of consecutive cycles.

        Count-identical to observing one cycle at a time (the accumulators
        are integers, so summation order cannot change them): ones and
        transitions are popcounted over the whole block in one
        pass, and the transition pair spanning a block boundary is formed
        against the previous block's last observed cycle.
        """
        block = history.shape[0]
        if block == 0:
            return
        self.ones += popcount_int64(history, axis=2).sum(axis=0)
        if self._prev is not None:
            # Boundary pair against the previous block's last cycle —
            # formed separately so the history never needs re-copying.
            first = history[0]
            self.tr01 += popcount_int64(~self._prev & first, axis=1)
            self.tr10 += popcount_int64(self._prev & ~first, axis=1)
            self.pairs += 1
        if block > 1:
            pre, cur = history[:-1], history[1:]
            self.tr01 += popcount_int64(~pre & cur, axis=2).sum(axis=0)
            self.tr10 += popcount_int64(pre & ~cur, axis=2).sum(axis=0)
            self.pairs += block - 1
        self._prev = history[-1].copy()
        self.cycles += block

    def result(
        self, netlist: Netlist, streams: int, rows: slice = slice(None)
    ) -> "SimResult":
        """Activity probabilities of the nodes in ``rows`` (all of them, or
        one pack member's slice of a union counter)."""
        samples = self.cycles * streams
        pair_samples = max(self.pairs, 1) * streams
        return SimResult(
            logic_prob=self.ones[rows] / samples,
            tr01_prob=self.tr01[rows] / pair_samples,
            tr10_prob=self.tr10[rows] / pair_samples,
            cycles=self.cycles,
            streams=streams,
            netlist=netlist,
        )


@dataclass
class SimConfig:
    """Simulation run parameters.

    ``cycles`` counts *observed* cycles per stream; with ``streams`` lanes
    the effective sample count is ``cycles * streams``.  ``warmup`` cycles
    run first without being counted, flushing the all-zero reset state.
    ``seed`` drives simulator-side randomness (random DFF initialization,
    episode resets) — PI stimulus comes from the workload's own seed.
    """

    cycles: int = 156
    streams: int = 64
    warmup: int = 8
    seed: int = 0
    init_state: str = "zero"

    def __post_init__(self) -> None:
        if self.cycles < 2:
            raise ValueError("need at least 2 observed cycles for transitions")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


@dataclass
class SimResult:
    """Empirical activity statistics of one simulation run.

    Probabilities follow the paper's definitions: ``logic_prob[v]`` is the
    fraction of observed (cycle, stream) samples where ``v`` was 1;
    ``tr01_prob[v]`` / ``tr10_prob[v]`` are the fractions of consecutive
    cycle pairs with a 0→1 / 1→0 transition.
    """

    logic_prob: np.ndarray
    tr01_prob: np.ndarray
    tr10_prob: np.ndarray
    cycles: int
    streams: int
    netlist: Netlist = field(repr=False)

    @property
    def transition_prob(self) -> np.ndarray:
        """Per-node 2-d supervision vector [p01, p10], shape (N, 2)."""
        return np.stack([self.tr01_prob, self.tr10_prob], axis=1)

    @property
    def toggle_rate(self) -> np.ndarray:
        """Per-node toggles per cycle: p01 + p10."""
        return self.tr01_prob + self.tr10_prob

    @property
    def avg_transition_prob(self) -> float:
        """y^TR_avg over all nodes — the quantity dynamic power scales with."""
        return float(self.toggle_rate.mean() / 2.0)

    def idle_fraction(self, eps: float = 0.0) -> float:
        """Fraction of nodes with toggle rate <= eps (paper: ~70 % on large
        circuits under random workloads)."""
        return float((self.toggle_rate <= eps).mean())


def simulate(
    circuit: Netlist | CompiledCircuit,
    workload: Workload,
    config: SimConfig | None = None,
    *,
    engine: str = "block",
    block_cycles: int | None = None,
    budget: MemoryBudget | None = None,
) -> SimResult:
    """Run a workload and collect per-node activity statistics.

    Stimulus is drawn from the *workload's own* seed, so two workloads
    with different seeds produce decorrelated pattern streams even under
    one :class:`SimConfig` (``config.seed`` only drives random DFF
    initialization).

    ``block_cycles`` tunes the block executor's history depth (default
    :data:`DEFAULT_BLOCK_CYCLES`, capped by a flat memory bound) and
    ``budget`` bounds the plan's resident buffers
    (:class:`~repro.memory.MemoryBudget`), neither affecting results.
    ``engine`` accepts ``"block"`` (default) and ``"partitioned"``, a
    deprecated alias of it; both run the block executor as the
    one-member case of :func:`repro.sim.pack.simulate_packed`.
    """
    if engine not in ("block", "partitioned"):
        raise ValueError(f"unknown engine {engine!r}")
    config = config or SimConfig()
    # Deferred: repro.sim.pack builds on this module.
    from repro.sim.pack import _run_packed, pack_circuits

    packed = pack_circuits([circuit], cache=False)
    return _run_packed(packed, [workload], config, block_cycles, budget)[0]

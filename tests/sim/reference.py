"""The per-cycle reference simulator: the oracle the block executor is held to.

The library has one gate-evaluation loop, the block executor
(:class:`~repro.sim.logicsim.SimPlan` + ``Simulator.run_block``).  This
module keeps the original per-cycle loop beside the tests that pin it:
one ``eval_gate`` call per evaluation group and cycle, a scalar fault
injector drawing one mask per (cycle, group), and DFFs latched by an
explicit :meth:`CycleSimulator.latch`.  It shares no evaluation code with
the executor — only the compiled groups and the integer accumulators —
so the golden digests in ``test_engine_golden.py`` and every differential
test compare two independent implementations.

Both loops consume every generator in the same order (stimulus per cycle
from one :class:`~repro.sim.workload.PatternSource`, DFF resets per run
or episode, fault draws per (cycle, group) in compiled-op order), so
their results are float64-bitwise-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuit.gates import GateType, eval_gate
from repro.circuit.netlist import Netlist
from repro.sim import logicsim
from repro.sim.bitvec import popcount
from repro.sim.faults import (
    FaultConfig,
    FaultSimResult,
    _episode_schedule,
    _FaultStats,
    _mask_mix,
)
from repro.sim.logicsim import (
    ActivityCounter,
    CompiledCircuit,
    SimConfig,
    SimResult,
)
from repro.sim.workload import PatternSource, Workload

#: Injection hook signature: (cycle_index, node_ids) -> uint64 flip mask
#: of shape (len(node_ids), words), xor-ed into freshly computed outputs.
FaultHook = Callable[[int, np.ndarray], np.ndarray]


class CycleSimulator(logicsim.Simulator):
    """A :class:`~repro.sim.logicsim.Simulator` that steps one cycle at a time.

    :meth:`step` settles the combinational logic and records the DFFs'
    next state; :meth:`latch` commits it.  ``reset`` drops a pending
    state, so a pre-reset state never latches.
    """

    def __init__(self, circuit: Netlist | CompiledCircuit, streams: int = 64):
        super().__init__(circuit, streams)
        self._pending_state: np.ndarray | None = None

    def reset(
        self,
        init_state: str = "zero",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().reset(init_state, rng)
        self._pending_state = None

    def step(
        self,
        pi_words: np.ndarray,
        cycle: int = 0,
        fault_hook: FaultHook | None = None,
    ) -> np.ndarray:
        """Advance one clock cycle; returns the settled value array (view).

        ``pi_words`` is ``(num_pis, words)`` uint64.  ``fault_hook``, when
        given, supplies a flip mask per evaluation group (transient fault
        injection on combinational outputs).
        """
        vals = self.values
        pi_words = np.asarray(pi_words, dtype=np.uint64).reshape(
            self.compiled.pi_ids.size, self.words
        )
        if self.compiled.pi_ids.size:
            vals[self.compiled.pi_ids] = pi_words
        for op in self.compiled.ops:
            inputs = [vals[fanin] for fanin in op.fanins]
            if op.gate_type is GateType.CONST0:
                out = np.zeros((op.nodes.size, self.words), dtype=np.uint64)
            elif op.gate_type is GateType.CONST1:
                out = np.full(
                    (op.nodes.size, self.words),
                    np.uint64(0xFFFFFFFFFFFFFFFF),
                    dtype=np.uint64,
                )
            else:
                out = eval_gate(op.gate_type, inputs)
            if fault_hook is not None:
                out = out ^ fault_hook(cycle, op.nodes)
            vals[op.nodes] = out
        # Latch next state after combinational settle.
        self._pending_state = vals[self.compiled.dff_src].copy()
        return vals

    def latch(self) -> None:
        """Commit the pending DFF next-state (end of the clock cycle)."""
        if self._pending_state is None:
            raise RuntimeError("latch() without a preceding step()")
        self.values[self.compiled.dff_ids] = self._pending_state


class CycleCounter(ActivityCounter):
    """An :class:`~repro.sim.logicsim.ActivityCounter` fed one cycle at a time."""

    def observe(self, values: np.ndarray) -> None:
        """Feed the settled node values of one cycle."""
        self.ones += popcount(values, axis=1).astype(np.int64)
        if self._prev is not None:
            rising = ~self._prev & values
            falling = self._prev & ~values
            self.tr01 += popcount(rising, axis=1).astype(np.int64)
            self.tr10 += popcount(falling, axis=1).astype(np.int64)
            self.pairs += 1
        self._prev = values.copy()
        self.cycles += 1


class FaultInjector:
    """Scalar per-(cycle, group) flip masks with ~``rate`` bit density.

    Per call: one ``random()`` draw picks ``k`` from the
    :func:`~repro.sim.faults._mask_mix` of ``rate``, then ``k``
    sequential ``(m, words)`` uniform draws AND into the mask.  The block
    executor reads the same raw stream in bulk
    (:class:`repro.sim.pack._PackedInjector`), pinned bitwise to this.
    """

    def __init__(self, rate: float, words: int, rng: np.random.Generator):
        self.words = words
        self.rng = rng
        mix = _mask_mix(rate)
        self.k_lo = None
        if mix is not None:
            self.k_lo, self.k_hi, self.w_lo = mix

    def mask(self, cycle: int, nodes: np.ndarray) -> np.ndarray:
        shape = (nodes.size, self.words)
        if self.k_lo is None:
            return np.zeros(shape, dtype=np.uint64)
        k = self.k_lo if self.rng.random() < self.w_lo else self.k_hi
        out = self.rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        for _ in range(k - 1):
            out &= self.rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        return out


def simulate(
    circuit: Netlist | CompiledCircuit,
    workload: Workload,
    config: SimConfig | None = None,
) -> SimResult:
    """:func:`repro.sim.logicsim.simulate`, one cycle at a time."""
    config = config or SimConfig()
    sim = CycleSimulator(circuit, streams=config.streams)
    sim.reset(config.init_state, np.random.default_rng(config.seed))
    source = PatternSource(workload, streams=config.streams)
    counter = CycleCounter(sim.compiled.num_nodes, sim.words)
    for cycle in range(config.warmup + config.cycles):
        values = sim.step(source.next_cycle(), cycle)
        if cycle >= config.warmup:
            counter.observe(values)
        sim.latch()
    return counter.result(sim.compiled.netlist, sim.streams)


def simulate_with_faults(
    circuit: Netlist | CompiledCircuit,
    workload: Workload,
    sim_config: SimConfig | None = None,
    fault_config: FaultConfig | None = None,
) -> FaultSimResult:
    """:func:`repro.sim.faults.simulate_with_faults` as two stepping machines.

    Golden and faulty simulators share one pattern source; per episode
    both restart from the reset state, and per cycle only the faulty one
    draws masks.
    """
    sim_config = sim_config or SimConfig()
    fault_config = fault_config or FaultConfig()
    golden = CycleSimulator(circuit, streams=sim_config.streams)
    faulty = CycleSimulator(golden.compiled, streams=sim_config.streams)
    injector = FaultInjector(
        fault_config.effective_cycle_rate,
        golden.words,
        np.random.default_rng(fault_config.seed),
    )
    source = PatternSource(workload, streams=sim_config.streams)
    netlist = golden.compiled.netlist
    stats = _FaultStats(netlist, np.asarray(netlist.pos, dtype=np.int64))
    po_ids = stats.po_ids
    cycle = 0
    for episode, observe in enumerate(_episode_schedule(sim_config, fault_config)):
        # Pattern boundary: both machines restart from the reset state.
        golden.reset(
            sim_config.init_state, np.random.default_rng(sim_config.seed + episode)
        )
        faulty.reset(
            sim_config.init_state, np.random.default_rng(sim_config.seed + episode)
        )
        for k in range(sim_config.warmup + observe):
            pi_words = source.next_cycle()
            gv = golden.step(pi_words, cycle)
            fv = faulty.step(pi_words, cycle, fault_hook=injector.mask)
            cycle += 1
            if k >= sim_config.warmup:
                zeros = ~gv
                stats.obs0 += popcount(zeros, axis=1).astype(np.int64)
                stats.obs1 += popcount(gv, axis=1).astype(np.int64)
                stats.e01 += popcount(zeros & fv, axis=1).astype(np.int64)
                stats.e10 += popcount(gv & ~fv, axis=1).astype(np.int64)
                if po_ids.size:
                    mismatch = gv[po_ids] ^ fv[po_ids]
                    any_bad = np.bitwise_or.reduce(mismatch, axis=0)
                    stats.po_total += golden.streams
                    stats.po_ok += golden.streams - int(popcount(any_bad))
            golden.latch()
            faulty.latch()
    return stats.result()

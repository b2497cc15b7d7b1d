"""Shared helpers for the simulation-engine test layer.

The differential and golden-hash tests both need (a) a netlist that
exercises every combinational gate kind the simulator understands —
including the extended-library gates the random generator emits rarely or
never (XNOR, 3-input reductions, constants) — and (b) reference runners
that execute the *pinned* per-cycle engine (:mod:`tests.sim.reference`)
and hash its value traces.
"""

import hashlib

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.sim.logicsim import SimConfig, Simulator
from repro.sim.workload import PatternSource, Workload
from tests.sim.reference import CycleSimulator


def gate_zoo_netlist() -> Netlist:
    """A small sequential netlist covering the full gate alphabet.

    Every combinational gate kind appears at least once, the n-ary kinds
    at arities 2 and 3, both constants drive logic, and two DFFs close
    feedback loops so block boundaries interact with state.
    """
    nl = Netlist("zoo")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    c = nl.add_pi("c")
    d0 = nl.add_dff(None, "d0")
    d1 = nl.add_dff(None, "d1")
    k0 = nl.add_gate(GateType.CONST0, [], "k0")
    k1 = nl.add_gate(GateType.CONST1, [], "k1")
    and2 = nl.add_gate(GateType.AND, [a, b], "and2")
    and3 = nl.add_gate(GateType.AND, [a, b, c], "and3")
    or2 = nl.add_gate(GateType.OR, [a, d0], "or2")
    or3 = nl.add_gate(GateType.OR, [a, b, d1], "or3")
    nand2 = nl.add_gate(GateType.NAND, [b, c], "nand2")
    nand3 = nl.add_gate(GateType.NAND, [a, c, d0], "nand3")
    nor2 = nl.add_gate(GateType.NOR, [a, c], "nor2")
    xor2 = nl.add_gate(GateType.XOR, [a, b], "xor2")
    xor3 = nl.add_gate(GateType.XOR, [a, b, c], "xor3")
    xnor2 = nl.add_gate(GateType.XNOR, [b, d0], "xnor2")
    xnor3 = nl.add_gate(GateType.XNOR, [a, c, d1], "xnor3")
    inv = nl.add_gate(GateType.NOT, [and2], "inv")
    buf = nl.add_gate(GateType.BUF, [xor2], "buf")
    mux = nl.add_gate(GateType.MUX, [a, or2, nand2], "mux")
    mixed = nl.add_gate(GateType.AND, [k1, or3], "mixed")
    dead0 = nl.add_gate(GateType.OR, [k0, xnor3], "dead0")
    nl.set_fanins(d0, [xor2])
    nl.set_fanins(d1, [mux])
    nl.add_po(mux)
    nl.add_po(xnor2)
    nl.add_po(and3)
    nl.add_po(mixed)
    nl.add_po(dead0)
    nl.add_po(inv)
    nl.add_po(buf)
    nl.add_po(nor2)
    nl.add_po(xor3)
    nl.add_po(nand3)
    nl.validate()
    return nl


def zoo_workload(seed: int = 11) -> Workload:
    return Workload(np.array([0.35, 0.6, 0.5]), "zoo", seed=seed)


def cycle_trace_hash(circuit, workload, config: SimConfig) -> str:
    """SHA-256 over the pinned per-cycle engine's settled value trace.

    Replays exactly what :func:`tests.sim.reference.simulate` executes — reset,
    per-cycle stimulus draws, step/latch — hashing every settled
    ``(num_nodes, words)`` value array (warmup included) in order.
    """
    sim = CycleSimulator(circuit, streams=config.streams)
    sim.reset(config.init_state, np.random.default_rng(config.seed))
    source = PatternSource(workload, streams=config.streams)
    h = hashlib.sha256()
    for cycle in range(config.warmup + config.cycles):
        values = sim.step(source.next_cycle(), cycle)
        h.update(np.ascontiguousarray(values).tobytes())
        sim.latch()
    return h.hexdigest()


class BlockTraceHasher:
    """Duck-typed counter hashing every settled cycle the block engine ran."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def observe_block(self, history: np.ndarray) -> None:
        self._h.update(np.ascontiguousarray(history).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def block_trace_hash(
    circuit,
    workload,
    config: SimConfig,
    block_cycles: int | None = None,
    budget=None,
) -> str:
    """SHA-256 over the block engine's settled value trace (all cycles)."""
    sim = Simulator(circuit, streams=config.streams)
    sim.reset(config.init_state, np.random.default_rng(config.seed))
    source = PatternSource(workload, streams=config.streams)
    recorder = BlockTraceHasher()
    sim.run(
        config.warmup + config.cycles,
        source,
        recorder,
        block_cycles=block_cycles,
        budget=budget,
    )
    return recorder.hexdigest()


def stats_hash(arrays) -> str:
    """SHA-256 over the float64/int64 bytes of result arrays, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()

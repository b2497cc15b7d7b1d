"""Structured testbench stimulus programs.

Random workloads describe *stationary* PI statistics; real testbenches are
programs — reset pulses, configuration writes, idle gaps, data bursts.
This module provides a small stimulus language whose programs compile to
the same packed word stream the simulator consumes, plus the phase-aware
activity collection used to mimic "parse their corresponding testbench
files and collect the transition probability and logic probability of each
PI" (paper Section V-A2): running a program and summarizing it per PI
yields a :class:`~repro.sim.workload.Workload` equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Netlist
from repro.sim.bitvec import WORD_BITS, biased_words, words_for
from repro.sim.workload import Workload

__all__ = ["Phase", "StimulusProgram", "workload_from_program"]


@dataclass(frozen=True)
class Phase:
    """One program phase: fixed per-PI logic-1 probabilities for a span.

    ``probs`` maps PI *name* to probability; unmentioned PIs inherit the
    program default.  Probability 0.0/1.0 pins a control line for the
    phase (e.g. reset asserted).
    """

    name: str
    cycles: int
    probs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("phase must span at least one cycle")
        for pin, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for {pin!r} out of range")


@dataclass
class StimulusProgram:
    """A sequence of phases driving one netlist's PIs.

    Example — reset, configure, burst, idle::

        program = StimulusProgram(nl, default_prob=0.05, phases=[
            Phase("reset", 4, {"rst": 1.0}),
            Phase("config", 16, {"ctrl0": 0.8, "ctrl1": 0.8}),
            Phase("burst", 64, {"din0": 0.5, "din1": 0.5}),
            Phase("idle", 32),
        ])
        stream = program.compile(streams=64, seed=0)   # (cycles, pis, words)
    """

    netlist: Netlist
    phases: list[Phase]
    default_prob: float = 0.05
    repeat: int = 1

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("program needs at least one phase")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        pi_names = {self.netlist.node_name(p) for p in self.netlist.pis}
        for phase in self.phases:
            unknown = set(phase.probs) - pi_names
            if unknown:
                raise ValueError(
                    f"phase {phase.name!r} drives unknown PIs {sorted(unknown)}"
                )

    @property
    def total_cycles(self) -> int:
        return self.repeat * sum(p.cycles for p in self.phases)

    def prob_matrix(self) -> np.ndarray:
        """Per-cycle, per-PI probabilities: (total_cycles, num_pis)."""
        pis = self.netlist.pis
        names = [self.netlist.node_name(p) for p in pis]
        rows: list[np.ndarray] = []
        for _ in range(self.repeat):
            for phase in self.phases:
                row = np.array(
                    [phase.probs.get(n, self.default_prob) for n in names]
                )
                rows.append(np.tile(row, (phase.cycles, 1)))
        return np.concatenate(rows, axis=0)

    def compile(self, streams: int = 64, seed: int = 0) -> np.ndarray:
        """Draw the packed stimulus: (total_cycles, num_pis, words)."""
        rng = np.random.default_rng(seed)
        probs = self.prob_matrix()
        words = words_for(streams)
        return biased_words(
            rng, (probs.shape[0], probs.shape[1], words), probs[..., None]
        )

    def simulate(self, sim_seed: int = 0, streams: int = 64):
        """Run the program through the simulator; returns a SimResult.

        Programs precompile their whole stimulus, which is exactly the
        shape the block-stepped engine consumes — :meth:`Simulator.run`
        slices it into blocks (bitwise-identical to per-cycle stepping).
        """
        from repro.sim.logicsim import ActivityCounter, Simulator

        sim = Simulator(self.netlist, streams=streams)
        sim.reset()
        stimulus = self.compile(streams=streams, seed=sim_seed)
        counter = ActivityCounter(len(self.netlist), sim.words)
        sim.run(stimulus.shape[0], stimulus, counter)
        return counter.result(self.netlist, sim.streams)


def workload_from_program(
    program: StimulusProgram, name: str | None = None, seed: int = 0
) -> Workload:
    """Distill a program into stationary per-PI statistics.

    This is the paper's testbench-parsing step: the resulting
    :class:`Workload` carries each PI's time-averaged logic-1 probability
    and can condition DeepSeq the same way random workloads do.
    """
    probs = program.prob_matrix().mean(axis=0)
    return Workload(probs, name or "program", seed=seed)

"""Monte-Carlo transient-fault simulation for reliability ground truth.

The paper's recipe (Section V-B1): simulate each circuit fault-free, then
again with the *same* patterns under a Monte-Carlo fault model where every
combinational gate output flips with probability ``fault_rate`` (0.05 %)
each cycle, and record per node the conditional error probabilities

* ``err01[v] = P(faulty(v) = 1 | golden(v) = 0)``  — 0→1 error probability,
* ``err10[v] = P(faulty(v) = 0 | golden(v) = 1)``  — 1→0 error probability.

Circuit *reliability* is summarized as the probability that all primary
outputs are correct, estimated over all observed (cycle, stream) samples.

Both machines run in lockstep sharing a single
:class:`~repro.sim.workload.PatternSource` replay, so stimulus is identical
bit-for-bit; only the injected flips (and their propagation through logic
and flip-flop state) differ.  The block executor runs them as the two
halves of one doubled word axis
(:func:`repro.sim.pack.simulate_with_faults_packed`); the two-simulator
per-cycle loop in ``tests/sim/reference.py`` is the oracle it is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Netlist
from repro.memory import MemoryBudget
from repro.sim.logicsim import CompiledCircuit, SimConfig
from repro.sim.workload import Workload

__all__ = ["FaultConfig", "FaultSimResult", "simulate_with_faults"]


@dataclass
class FaultConfig:
    """Fault-injection parameters (paper defaults).

    The paper's ground truth uses 1,000 sequential patterns of 100 cycles
    each: both simulators restart from the reset state at every pattern
    boundary, which bounds how far the faulty machine's state can diverge.
    ``episode_cycles`` is that pattern length; the total observed cycle
    count still comes from ``SimConfig.cycles`` (episodes =
    ceil(cycles / episode_cycles), with parallel bit streams multiplying
    the effective pattern count).
    """

    fault_rate: float = 5e-4  # 0.05 %
    episode_cycles: int = 100
    per_pattern: bool = True
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must lie in [0, 1]")
        if self.episode_cycles < 2:
            raise ValueError("episode_cycles must be >= 2")
        if self.effective_cycle_rate > 0.5:
            # The injector ANDs k >= 1 uniform words per mask (density
            # 2**-k), so no per-cycle flip density above 1/2 is reachable.
            raise ValueError(
                f"per-cycle flip rate {self.effective_cycle_rate:g} exceeds "
                "0.5, the densest mask the fault injector can draw"
            )

    @property
    def effective_cycle_rate(self) -> float:
        """Per-gate, per-cycle flip probability actually injected.

        With ``per_pattern`` (default) the 0.05 % rate is interpreted per
        100-cycle pattern — a gate suffers a transient with probability
        ``fault_rate`` somewhere within each pattern — which is the only
        reading consistent with the paper's measured reliabilities
        (0.979–0.997 on designs of 2k–18k gates; a per-cycle 0.05 % rate
        would give ~9 simultaneous faults every cycle on ac97_ctrl and
        reliability near zero).
        """
        if self.per_pattern:
            return self.fault_rate / self.episode_cycles
        return self.fault_rate


@dataclass
class FaultSimResult:
    """Per-node error probabilities plus circuit-level reliability.

    ``observed0``/``observed1`` are the golden machine's per-node 0/1
    sample counts, so the fault-free activity statistics of the *same*
    stimulus come for free — consumers that need the golden logic
    probability (e.g. the reliability dataset's auxiliary LG target) read
    :attr:`golden_logic_prob` instead of paying a second full simulation.
    """

    err01: np.ndarray
    err10: np.ndarray
    reliability: float
    observed0: np.ndarray
    observed1: np.ndarray
    netlist: Netlist = field(repr=False)

    @property
    def error_prob(self) -> np.ndarray:
        """Per-node 2-d supervision vector [err01, err10], shape (N, 2)."""
        return np.stack([self.err01, self.err10], axis=1)

    @property
    def samples(self) -> int:
        """Observed (cycle, stream) samples per node in the golden run."""
        return int(self.observed0[0] + self.observed1[0]) if self.observed0.size else 0

    @property
    def golden_logic_prob(self) -> np.ndarray:
        """Fault-free logic-1 probability under the lockstep stimulus."""
        total = self.observed0 + self.observed1
        return np.divide(self.observed1, np.maximum(total, 1), dtype=np.float64)


def _mask_mix(rate: float) -> tuple[int, int, float] | None:
    """How fault masks reach ~``rate`` bit density: ``(k_lo, k_hi, w_lo)``.

    Exact per-bit Bernoulli masks would need 64 random floats per node per
    cycle; instead a mask ANDs ``k`` uniform random words, giving density
    ``2**-k``, and each (cycle, group) draws ``k = k_lo`` with probability
    ``w_lo``, else ``k_hi = k_lo + 1``, so the *expected* density equals
    ``rate`` exactly (for rates up to 0.5, the ``k = 1`` ceiling
    :class:`FaultConfig` enforces).  ``None`` when ``rate <= 0``: nothing
    is drawn.
    """
    if rate <= 0.0:
        return None
    k_lo = int(np.floor(max(1.0, -np.log2(rate))))
    p_lo, p_hi = 2.0**-k_lo, 2.0 ** -(k_lo + 1)
    # mix: w * p_lo + (1-w) * p_hi = rate
    return k_lo, k_lo + 1, (rate - p_hi) / (p_lo - p_hi)


class _FaultStats:
    """One circuit's lockstep accumulators.

    All integers, so block-wise and per-cycle summation agree exactly.
    ``counts`` lets the block executor hand each pack member its
    ``(4, n)`` slice of the union-wide ``obs0/obs1/e01/e10`` arrays.
    """

    def __init__(
        self,
        netlist: Netlist,
        po_ids: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        if counts is None:
            counts = np.zeros((4, len(netlist)), dtype=np.int64)
        self.obs0, self.obs1, self.e01, self.e10 = counts
        self.po_ok = 0
        self.po_total = 0
        self.po_ids = po_ids
        self.netlist = netlist

    def result(self) -> FaultSimResult:
        err01 = np.divide(self.e01, np.maximum(self.obs0, 1), dtype=np.float64)
        err10 = np.divide(self.e10, np.maximum(self.obs1, 1), dtype=np.float64)
        reliability = self.po_ok / self.po_total if self.po_total else 1.0
        return FaultSimResult(
            err01=err01,
            err10=err10,
            reliability=float(reliability),
            observed0=self.obs0.copy(),
            observed1=self.obs1.copy(),
            netlist=self.netlist,
        )


def _episode_schedule(sim_config: SimConfig, fault_config: FaultConfig):
    """Observed-cycle count per episode."""
    episodes = max(1, -(-sim_config.cycles // fault_config.episode_cycles))
    remaining = sim_config.cycles
    spans = []
    for _ in range(episodes):
        observe = min(fault_config.episode_cycles, remaining)
        remaining -= observe
        spans.append(observe)
    return spans


def simulate_with_faults(
    circuit: Netlist | CompiledCircuit,
    workload: Workload,
    sim_config: SimConfig | None = None,
    fault_config: FaultConfig | None = None,
    *,
    block_cycles: int | None = None,
    budget: "MemoryBudget | None" = None,
) -> FaultSimResult:
    """Run golden and faulty simulations in lockstep; collect error stats.

    Golden and faulty machines always share one
    :class:`~repro.sim.workload.PatternSource`, so
    their stimulus is identical bit-for-bit regardless of seeding.  The
    stream is drawn from the workload's own seed (matching
    :func:`repro.sim.logicsim.simulate`).

    Both machines run in one block-executor pass over a doubled word
    axis, as the one-member case of
    :func:`repro.sim.pack.simulate_with_faults_packed`.  Stimulus draws,
    episode resets and fault draws consume their generators in the
    per-cycle reference's order (only the faulty machine draws, in
    unchanged cycle order), so results are float64-bitwise-identical to
    it and cached fault labels keep their digests.  ``block_cycles``
    and ``budget`` bound the doubled plan's buffers
    (:class:`~repro.memory.MemoryBudget`) without affecting results.
    """
    sim_config = sim_config or SimConfig()
    fault_config = fault_config or FaultConfig()
    # Deferred: repro.sim.pack builds on this module.
    from repro.sim.pack import _run_packed_faults, pack_circuits

    packed = pack_circuits([circuit], cache=False)
    return _run_packed_faults(
        packed,
        [workload],
        sim_config,
        fault_config,
        block_cycles,
        budget,
    )[0]

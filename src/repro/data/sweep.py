"""Workload-sweep generation with toggle-coverage screening.

Scenario diversity on the large designs needs many *qualified* workloads:
the paper's observation that random stimulus leaves ~70 % of large-circuit
gates inactive means a naive sweep spends most of its labels on dead
logic.  :func:`sweep_workloads` draws candidate workloads (random and/or
testbench-style mixtures), simulates each through the factory — so the
screening runs cost nothing when the sweep's labels are built afterwards,
the cache already holds them — and keeps only candidates whose
:func:`repro.sim.coverage.toggle_coverage` clears the configured floors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Netlist
from repro.sim.coverage import ToggleCoverage, toggle_coverage
from repro.sim.logicsim import SimConfig
from repro.sim.workload import (
    Workload,
    random_workload,
    spawn_seeds,
    testbench_workload,
)

__all__ = ["SweepConfig", "SweepResult", "sweep_workloads"]


@dataclass(frozen=True)
class SweepConfig:
    """Sweep size, candidate mixture and acceptance floors.

    Attributes:
        count: qualified workloads to return.
        kinds: candidate generators, drawn round-robin — ``"random"``
            (uniform per-PI probabilities, the pre-training recipe) and/or
            ``"testbench"`` (bimodal control/data mixture).
        activity: ``active_fraction`` of testbench-style candidates.
        min_value_coverage: floor on the fraction of nodes observed at
            both logic values.
        min_full_coverage: floor on the fraction of nodes toggling in
            both directions — the paper-motivated activity screen.
        max_draws: candidate budget; the sweep raises if it exhausts the
            budget before ``count`` workloads qualify (floors too strict
            for the circuit).
        sim: simulation parameters used for screening (and shared with
            the later label build so the cache hits).
    """

    count: int = 8
    kinds: tuple[str, ...] = ("random", "testbench")
    activity: float = 0.55
    min_value_coverage: float = 0.0
    min_full_coverage: float = 0.05
    max_draws: int | None = None
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.kinds:
            raise ValueError("need at least one candidate kind")
        for kind in self.kinds:
            if kind not in ("random", "testbench"):
                raise ValueError(f"unknown workload kind {kind!r}")


@dataclass
class SweepResult:
    """Qualified workloads plus the screening record."""

    workloads: list[Workload]
    coverages: list[ToggleCoverage]
    rejected: int
    draws: int

    @property
    def acceptance_rate(self) -> float:
        return len(self.workloads) / self.draws if self.draws else 0.0


def sweep_workloads(
    nl: Netlist,
    config: SweepConfig | None = None,
    seed: int = 0,
    factory=None,
) -> SweepResult:
    """Generate ``config.count`` coverage-qualified workloads for ``nl``.

    Candidate seeds come from :func:`repro.sim.workload.spawn_seeds`, so
    sweeps with different parent seeds never replay each other's streams.
    ``factory`` defaults to the process-default
    :func:`repro.data.get_factory`; every screening simulation lands in
    its label cache, making the subsequent ``factory.build(...,
    workloads=result.workloads)`` a pure cache read.
    """
    config = config or SweepConfig()
    if factory is None:
        from repro.data.factory import get_factory

        factory = get_factory()
    budget = config.max_draws or max(16, 8 * config.count)
    seeds = spawn_seeds(seed, budget)
    candidates: list[Workload] = []
    for draw, wl_seed in enumerate(seeds):
        kind = config.kinds[draw % len(config.kinds)]
        if kind == "random":
            candidates.append(
                random_workload(nl, seed=wl_seed, name=f"sweep{draw}")
            )
        else:
            candidates.append(
                testbench_workload(
                    nl, seed=wl_seed, name=f"sweep{draw}",
                    active_fraction=config.activity,
                )
            )
    # Candidates screen in waves so uncached simulations ride the
    # factory's packed sweeps; acceptance stays strictly in seed order
    # (a wave's surplus candidates never count as draws), so workloads,
    # draws and rejected are identical to one-at-a-time screening.
    wave = max(1, factory.config.pack_size)
    accepted: list[Workload] = []
    coverages: list[ToggleCoverage] = []
    rejected = 0
    draws = 0
    for lo in range(0, len(candidates), wave):
        if len(accepted) >= config.count:
            break
        wave_cands = candidates[lo : lo + wave]
        sims = factory.simulate_many(
            [nl] * len(wave_cands), wave_cands, config.sim
        )
        for wl, sim_res in zip(wave_cands, sims):
            if len(accepted) >= config.count:
                break
            draws += 1
            cov = toggle_coverage(sim_res)
            if (
                cov.value_coverage >= config.min_value_coverage
                and cov.full_coverage >= config.min_full_coverage
            ):
                accepted.append(wl)
                coverages.append(cov)
            else:
                rejected += 1
    if len(accepted) < config.count:
        raise RuntimeError(
            f"workload sweep exhausted {budget} draws with only "
            f"{len(accepted)}/{config.count} qualified (floors: value >= "
            f"{config.min_value_coverage}, full >= {config.min_full_coverage})"
        )
    return SweepResult(
        workloads=accepted, coverages=coverages, rejected=rejected, draws=draws
    )

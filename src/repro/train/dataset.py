"""Training datasets: circuits + workloads + simulated supervision.

The paper's label pipeline (Section III-A): per circuit, draw one random
workload, simulate it, and record each node's logic-1 probability and
0→1 / 1→0 transition probabilities.  :func:`build_dataset` runs that
pipeline; :func:`build_reliability_dataset` runs the fault-injection
variant used for the reliability fine-tuning task (Section V-B1).

Both builders label through the block-stepped simulation engine (the
``repro.sim`` default) — bitwise-identical to the per-cycle reference
loop, so labels, cached digests and existing datasets are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.sim.faults import FaultConfig, FaultSimResult, simulate_with_faults
from repro.sim.logicsim import SimConfig, SimResult, simulate
from repro.sim.workload import Workload, random_workload, spawn_seeds

__all__ = [
    "CircuitSample",
    "dataset_workloads",
    "build_dataset",
    "build_reliability_dataset",
]


@dataclass
class CircuitSample:
    """One supervised training example.

    Attributes:
        graph: the circuit in learning-graph form.
        workload: the PI stimulus the labels were collected under.
        target_tr: (N, 2) transition-probability labels [p01, p10].
        target_lg: (N,) logic-1 probability labels.
        name: circuit identifier for reporting.
    """

    graph: CircuitGraph
    workload: Workload
    target_tr: np.ndarray
    target_lg: np.ndarray
    name: str = "sample"
    extras: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @classmethod
    def from_sim(
        cls, result: SimResult, workload: Workload, keep_sim: bool
    ) -> "CircuitSample":
        """Section III-A sample: transition + logic probabilities.

        ``keep_sim=True`` stashes ``result`` under ``extras["sim"]`` (the
        Grannite fine-tune consumes it); lean samples hold only the graph
        and the label arrays.
        """
        return cls(
            graph=CircuitGraph(result.netlist),
            workload=workload,
            target_tr=result.transition_prob,
            target_lg=result.logic_prob,
            name=result.netlist.name,
            extras={"sim": result} if keep_sim else {},
        )

    @classmethod
    def from_faults(
        cls, result: FaultSimResult, workload: Workload, keep_sim: bool
    ) -> "CircuitSample":
        """Section V-B1 sample: ``target_tr`` is the 2-d error-probability
        vector; ``target_lg`` keeps the fault-free logic probability as the
        auxiliary task, read off the lockstep golden run (one simulation
        per circuit, not two).  ``keep_sim`` stashes ``extras["faults"]``.
        """
        return cls(
            graph=CircuitGraph(result.netlist),
            workload=workload,
            target_tr=result.error_prob,
            target_lg=result.golden_logic_prob,
            name=result.netlist.name,
            extras={"faults": result} if keep_sim else {},
        )


def dataset_workloads(
    circuits: list[Netlist], seed: int, workloads: list[Workload] | None = None
) -> list[Workload]:
    """The per-circuit workloads a dataset build uses (given or derived).

    Derived workload seeds come from :func:`repro.sim.workload.spawn_seeds`
    so two dataset seeds can never alias each other's per-circuit streams
    (the old affine ``seed * K + k`` derivation collided across seeds).
    Shared between the serial builders below and the parallel
    :class:`repro.data.DataFactory`, which keeps the two paths
    bitwise-identical.
    """
    if workloads is not None:
        if len(workloads) != len(circuits):
            raise ValueError("need exactly one workload per circuit")
        return list(workloads)
    seeds = spawn_seeds(seed, len(circuits))
    return [random_workload(nl, seed=s) for nl, s in zip(circuits, seeds)]


def build_dataset(
    circuits: list[Netlist],
    sim_config: SimConfig | None = None,
    seed: int = 0,
    workloads: list[Workload] | None = None,
    keep_sim: bool = True,
) -> list[CircuitSample]:
    """Simulate one (given or random) workload per circuit; label all nodes.

    The serial reference :meth:`repro.data.DataFactory.build` is verified
    bitwise against; see :meth:`CircuitSample.from_sim` for ``keep_sim``.
    """
    sim_config = sim_config or SimConfig()
    return [
        CircuitSample.from_sim(simulate(nl, wl, sim_config), wl, keep_sim)
        for nl, wl in zip(circuits, dataset_workloads(circuits, seed, workloads))
    ]


def build_reliability_dataset(
    circuits: list[Netlist],
    sim_config: SimConfig | None = None,
    fault_config: FaultConfig | None = None,
    seed: int = 0,
    workloads: list[Workload] | None = None,
    keep_sim: bool = True,
) -> list[CircuitSample]:
    """Label nodes with 0→1 / 1→0 *error* probabilities (fault injection).

    The serial reference of :meth:`repro.data.DataFactory.build_reliability`;
    see :meth:`CircuitSample.from_faults` for the targets.
    """
    sim_config = sim_config or SimConfig()
    fault_config = fault_config or FaultConfig()
    return [
        CircuitSample.from_faults(
            simulate_with_faults(nl, wl, sim_config, fault_config), wl, keep_sim
        )
        for nl, wl in zip(circuits, dataset_workloads(circuits, seed, workloads))
    ]

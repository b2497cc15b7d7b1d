"""The end-to-end power-estimation pipeline of Fig. 3.

For one circuit and testing workload, four transition-probability sources
are each serialized to SAIF and fed to the power analyzer:

* **GT** — logic simulation of the workload (the paper's netlist simulator);
* **Probabilistic** — the non-simulative baseline [27];
* **Grannite** — fine-tuned Grannite predictions for combinational gates,
  with PI/FF activity taken from simulation (its "RTL simulation" inputs);
* **DeepSeq** — fine-tuned DeepSeq predictions for *all* components.

The SAIF round-trip is performed for real (serialize + re-parse), matching
the paper's toolflow where every method communicates with the power tool
through SAIF files only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Netlist
from repro.data.factory import DataFactory
from repro.models.base import RecurrentDagGnn
from repro.models.grannite import Grannite, SourceActivity
from repro.runtime import plan_for, predict_one
from repro.sim.logicsim import SimConfig, SimResult
from repro.sim.saif import activity_from_probs, parse_saif
from repro.sim.workload import Workload
from repro.tasks.power.analysis import PowerAnalyzer, PowerReport
from repro.tasks.power.probabilistic import estimate_probabilities

__all__ = ["MethodPower", "PowerComparison", "run_power_pipeline"]


@dataclass(frozen=True)
class MethodPower:
    """One method's estimate and its relative error against ground truth."""

    method: str
    power_mw: float
    error_pct: float


@dataclass
class PowerComparison:
    """Table V / VI row: per-method power and error for one (circuit, workload)."""

    design: str
    workload: str
    gt_mw: float
    methods: list[MethodPower] = field(default_factory=list)

    def method(self, name: str) -> MethodPower:
        for m in self.methods:
            if m.method == name:
                return m
        raise KeyError(name)

    def row(self) -> str:
        cells = " ".join(
            f"{m.power_mw:8.3f} {m.error_pct:6.2f}%" for m in self.methods
        )
        return f"{self.design:<12} {self.workload:<6} {self.gt_mw:8.3f} {cells}"


def _through_saif(
    nl: Netlist,
    logic_prob: np.ndarray,
    tr01: np.ndarray,
    tr10: np.ndarray,
    analyzer: PowerAnalyzer,
    duration: int,
) -> PowerReport:
    doc = activity_from_probs(nl, logic_prob, tr01, tr10, duration=duration)
    return analyzer.analyze(nl, parse_saif(doc.dumps()))


def run_power_pipeline(
    nl: Netlist,
    workload: Workload,
    deepseq: RecurrentDagGnn | None = None,
    grannite: Grannite | None = None,
    sim_config: SimConfig | None = None,
    analyzer: PowerAnalyzer | None = None,
    saif_duration: int = 10_000,
    gt_result: SimResult | None = None,
    factory=None,
) -> PowerComparison:
    """Run all methods on one circuit+workload; returns the comparison row.

    Models may be omitted (e.g. the quickstart compares only GT vs the
    probabilistic baseline); pass ``gt_result`` to reuse an existing
    simulation, or ``factory`` (a :class:`repro.data.DataFactory`) to
    source ground truth from the content-addressed label cache — repeated
    sweeps over one (design, workload) then skip simulation entirely
    (``None`` = a fresh in-process, memory-cached factory).
    """
    analyzer = analyzer or PowerAnalyzer()
    sim_config = sim_config or SimConfig()
    # Compiled plan from the shared runtime cache: repeated pipeline runs
    # on one design (e.g. per-workload sweeps) skip graph re-construction.
    plan = plan_for(nl)
    graph = plan.graph

    gt = gt_result
    if gt is None:
        gt = (factory or DataFactory(workers=0)).simulate(nl, workload, sim_config)
    gt_report = _through_saif(
        nl, gt.logic_prob, gt.tr01_prob, gt.tr10_prob, analyzer, saif_duration
    )
    comparison = PowerComparison(
        design=nl.name, workload=workload.name, gt_mw=gt_report.total_mw
    )

    def add(method: str, report: PowerReport) -> None:
        err = abs(report.total_mw - gt_report.total_mw) / gt_report.total_mw * 100
        comparison.methods.append(
            MethodPower(method=method, power_mw=report.total_mw, error_pct=err)
        )

    est = estimate_probabilities(nl, workload)
    add(
        "probabilistic",
        _through_saif(nl, est.logic_prob, est.tr01, est.tr10, analyzer, saif_duration),
    )

    if grannite is not None:
        sources = SourceActivity.from_sim(graph, gt)
        pred = grannite.predict_full(graph, sources)
        add(
            "grannite",
            _through_saif(
                nl, pred.lg, pred.tr[:, 0], pred.tr[:, 1], analyzer, saif_duration
            ),
        )

    if deepseq is not None:
        pred = predict_one(deepseq, graph, workload, plan=plan)
        add(
            "deepseq",
            _through_saif(
                nl, pred.lg, pred.tr[:, 0], pred.tr[:, 1], analyzer, saif_duration
            ),
        )
    return comparison

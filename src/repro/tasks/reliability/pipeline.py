"""End-to-end reliability comparison (Table VII).

Per circuit: Monte-Carlo fault simulation gives ground-truth reliability;
the analytical baseline and the fine-tuned DeepSeq model each produce
per-node error probabilities that are reduced to a circuit-level
reliability with the same PO-product formula, and compared against GT.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Netlist
from repro.data.factory import DataFactory
from repro.models.base import RecurrentDagGnn
from repro.runtime import plan_for, predict_one
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload
from repro.tasks.reliability.analytical import (
    AnalyticalConfig,
    estimate_reliability,
    reliability_from_node_errors,
)

__all__ = ["ReliabilityComparison", "run_reliability_pipeline"]


@dataclass
class ReliabilityComparison:
    """Table VII row: GT vs analytical vs DeepSeq reliability."""

    design: str
    gt: float
    analytical: float
    analytical_error_pct: float
    deepseq: float | None = None
    deepseq_error_pct: float | None = None

    def row(self) -> str:
        cells = f"{self.design:<12} {self.gt:8.4f} {self.analytical:8.4f} {self.analytical_error_pct:6.2f}%"
        if self.deepseq is not None:
            cells += f" {self.deepseq:8.4f} {self.deepseq_error_pct:6.2f}%"
        return cells


def run_reliability_pipeline(
    nl: Netlist,
    workload: Workload,
    deepseq: RecurrentDagGnn | None = None,
    sim_config: SimConfig | None = None,
    fault_config: FaultConfig | None = None,
    analytical_config: AnalyticalConfig | None = None,
    error_scale: float = 1.0,
    factory=None,
) -> ReliabilityComparison:
    """Compare reliability estimates for one circuit.

    ``error_scale`` undoes the target scaling of
    :func:`repro.train.finetune.finetune_for_reliability` — pass the same
    value used there (predictions are divided by it before the
    PO-reliability reduction).  ``factory`` (a
    :class:`repro.data.DataFactory`) sources the Monte-Carlo ground truth
    from the label cache when available (``None`` = a fresh in-process,
    memory-cached factory).
    """
    sim_config = sim_config or SimConfig()
    fault_config = fault_config or FaultConfig()
    gt = (factory or DataFactory(workers=0)).simulate_faults(
        nl, workload, sim_config, fault_config
    )

    analytical_config = analytical_config or AnalyticalConfig(
        eps=fault_config.effective_cycle_rate
    )
    baseline = estimate_reliability(nl, workload, analytical_config)
    a_err = abs(baseline.reliability - gt.reliability) / gt.reliability * 100

    comparison = ReliabilityComparison(
        design=nl.name,
        gt=gt.reliability,
        analytical=baseline.reliability,
        analytical_error_pct=a_err,
    )
    if deepseq is not None:
        plan = plan_for(nl)
        pred = predict_one(deepseq, plan.graph, workload, plan=plan)
        rel = reliability_from_node_errors(
            nl,
            pred.tr[:, 0] / error_scale,
            pred.tr[:, 1] / error_scale,
            pred.lg,
        )
        comparison.deepseq = rel
        comparison.deepseq_error_pct = abs(rel - gt.reliability) / gt.reliability * 100
    return comparison

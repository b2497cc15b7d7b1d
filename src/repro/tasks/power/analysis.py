"""The power-analysis engine (the "commercial power analysis tool" box of
Fig. 3): SAIF activity + netlist + cell library -> average power report.

Average dynamic power follows the paper's model ``P = 1/2 C Vdd^2 y_TR``
summed per gate, with the library converting per-cycle toggle rates into
watts at the operating clock; a small static (leakage) term is added per
cell, as real analyzers do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Netlist
from repro.sim.saif import SaifDocument
from repro.tasks.power.celllib import TSMC90_LIKE, CellLibrary

__all__ = ["PowerReport", "PowerAnalyzer"]


@dataclass(frozen=True)
class PowerReport:
    """Average power in watts, with a per-gate-type breakdown."""

    design: str
    dynamic_w: float
    leakage_w: float
    by_type_w: dict[str, float]

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w

    @property
    def total_mw(self) -> float:
        return self.total_w * 1e3

    def row(self, label: str = "") -> str:
        return (
            f"{label or self.design:<12} {self.total_mw:8.3f} mW "
            f"(dyn {self.dynamic_w * 1e3:7.3f}, leak {self.leakage_w * 1e3:7.3f})"
        )


@dataclass
class PowerAnalyzer:
    """Computes average power of a netlist from a SAIF activity file."""

    library: CellLibrary = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.library is None:
            self.library = TSMC90_LIKE

    def analyze(self, nl: Netlist, saif: SaifDocument) -> PowerReport:
        """Match SAIF records to nodes by name and integrate power."""
        toggle = saif.toggle_rate()
        names = [nl.node_name(node) for node in nl.nodes()]
        missing = [name for name in names if name not in toggle]
        if missing:
            raise ValueError(
                f"SAIF file missing activity for {len(missing)} signals "
                f"(first: {missing[:3]})"
            )
        return self._report(nl, np.array([toggle[name] for name in names]))

    def analyze_probs(
        self,
        nl: Netlist,
        tr01: np.ndarray,
        tr10: np.ndarray,
    ) -> PowerReport:
        """Shortcut bypassing SAIF serialization (used in tests/ablations)."""
        return self._report(nl, np.clip(tr01, 0.0, 1.0) + np.clip(tr10, 0.0, 1.0))

    def _report(self, nl: Netlist, rates: np.ndarray) -> PowerReport:
        """Per-node dynamic and leakage power at toggle rates ``rates``
        (indexed by node id), summed in node order."""
        dynamic = 0.0
        leakage = 0.0
        by_type: dict[str, float] = {}
        for node in nl.nodes():
            gt = nl.gate_type(node)
            p_dyn = self.library.dynamic_power_w(gt, float(rates[node]))
            p_leak = self.library.leakage_power_w(gt)
            dynamic += p_dyn
            leakage += p_leak
            by_type[gt.value] = by_type.get(gt.value, 0.0) + p_dyn + p_leak
        return PowerReport(
            design=nl.name, dynamic_w=dynamic, leakage_w=leakage, by_type_w=by_type
        )

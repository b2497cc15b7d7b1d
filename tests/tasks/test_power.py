"""Tests for the power-estimation task (repro.tasks.power)."""

import numpy as np
import pytest

from repro.circuit.benchmarks import family_subcircuits
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.saif import activity_from_probs
from repro.sim.workload import Workload, random_workload
from repro.tasks.power.analysis import PowerAnalyzer
from repro.tasks.power.celllib import TSMC90_LIKE, CellLibrary, CellParams
from repro.tasks.power.pipeline import run_power_pipeline
from repro.tasks.power.probabilistic import (
    ProbabilisticConfig,
    estimate_probabilities,
)


def tree_circuit() -> Netlist:
    """A fanout-free (tree) combinational circuit: independence is exact."""
    nl = Netlist("tree")
    a, b, c, d = (nl.add_pi(x) for x in "abcd")
    g1 = nl.add_gate(GateType.AND, [a, b], "g1")
    g2 = nl.add_gate(GateType.AND, [c, d], "g2")
    n1 = nl.add_gate(GateType.NOT, [g1], "n1")
    g3 = nl.add_gate(GateType.AND, [n1, g2], "g3")
    nl.add_po(g3)
    nl.validate()
    return nl


def reconvergent_circuit() -> Netlist:
    """x AND (NOT x): always 0, but independence predicts p=p(1-p)>0."""
    nl = Netlist("reconv")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    g = nl.add_gate(GateType.AND, [a, b], "g")
    ng = nl.add_gate(GateType.NOT, [g], "ng")
    bad = nl.add_gate(GateType.AND, [g, ng], "bad")
    nl.add_po(bad)
    nl.validate()
    return nl


class TestCellLibrary:
    def test_default_covers_all_gate_types(self):
        for t in GateType:
            TSMC90_LIKE.params(t)

    def test_dynamic_power_formula(self):
        # P = 1/2 C V^2 f r
        lib = CellLibrary(
            "unit",
            {GateType.AND: CellParams(cap_ff=2.0, leakage_nw=0.0)},
            vdd=1.0,
            clock_hz=1e9,
        )
        p = lib.dynamic_power_w(GateType.AND, 0.5)
        assert p == pytest.approx(0.5 * 2e-15 * 1.0 * 1e9 * 0.5)

    def test_missing_cell_rejected(self):
        lib = CellLibrary("empty", {})
        with pytest.raises(KeyError):
            lib.params(GateType.AND)


class TestPowerAnalyzer:
    def test_hand_computed_power(self):
        nl = Netlist("two_gates")
        a = nl.add_pi("a")
        g = nl.add_gate(GateType.NOT, [a], "g")
        nl.add_po(g)
        analyzer = PowerAnalyzer()
        lp = np.array([0.5, 0.5])
        tr = np.array([0.25, 0.25])
        report = analyzer.analyze_probs(nl, tr, tr)
        lib = TSMC90_LIKE
        expected = (
            lib.dynamic_power_w(GateType.PI, 0.5)
            + lib.dynamic_power_w(GateType.NOT, 0.5)
            + lib.leakage_power_w(GateType.PI)
            + lib.leakage_power_w(GateType.NOT)
        )
        assert report.total_w == pytest.approx(expected)

    def test_saif_and_probs_paths_agree(self):
        nl = tree_circuit()
        wl = random_workload(nl, 1)
        res = simulate(nl, wl, SimConfig(cycles=100, seed=1))
        analyzer = PowerAnalyzer()
        direct = analyzer.analyze_probs(nl, res.tr01_prob, res.tr10_prob)
        doc = activity_from_probs(
            nl, res.logic_prob, res.tr01_prob, res.tr10_prob, duration=100_000
        )
        via_saif = analyzer.analyze(nl, doc)
        assert via_saif.total_mw == pytest.approx(direct.total_mw, rel=1e-3)

    def test_missing_signals_rejected(self):
        nl = tree_circuit()
        doc = activity_from_probs(
            nl, *(np.zeros(len(nl)),) * 3, duration=10
        )
        doc.signals = doc.signals[:-1]
        with pytest.raises(ValueError, match="missing activity"):
            PowerAnalyzer().analyze(nl, doc)

    def test_report_breakdown_sums(self):
        nl = tree_circuit()
        report = PowerAnalyzer().analyze_probs(
            nl, np.full(len(nl), 0.1), np.full(len(nl), 0.1)
        )
        assert sum(report.by_type_w.values()) == pytest.approx(report.total_w)
        assert report.total_mw == pytest.approx(report.total_w * 1e3)


class TestProbabilistic:
    def test_exact_on_tree_circuits(self):
        """Without reconvergence or FFs, independence is exact: the
        probabilistic estimate matches simulation to sampling error."""
        nl = tree_circuit()
        wl = Workload(np.array([0.3, 0.6, 0.5, 0.8]), seed=2)
        est = estimate_probabilities(nl, wl)
        sim = simulate(nl, wl, SimConfig(cycles=400, streams=64, seed=2))
        assert np.abs(est.logic_prob - sim.logic_prob).max() < 0.02
        assert np.abs(est.tr01 - sim.tr01_prob).max() < 0.02

    def test_wrong_at_reconvergence(self):
        """The documented failure mode: correlated signals break it."""
        nl = reconvergent_circuit()
        wl = Workload(np.array([0.5, 0.5]), seed=3)
        est = estimate_probabilities(nl, wl)
        bad = nl.node_by_name("bad")
        sim = simulate(nl, wl, SimConfig(cycles=200, seed=3))
        assert sim.logic_prob[bad] == 0.0
        assert est.logic_prob[bad] > 0.05, (
            "independence assumption should overestimate here"
        )

    def test_ff_fixed_point_converges(self):
        circuits = family_subcircuits("iscas89", 2, seed=9)
        for nl in circuits:
            est = estimate_probabilities(nl, random_workload(nl, 1))
            assert est.converged
            assert (est.logic_prob >= 0).all() and (est.logic_prob <= 1).all()

    def test_workload_mismatch_rejected(self):
        nl = tree_circuit()
        with pytest.raises(ValueError):
            estimate_probabilities(nl, Workload(np.array([0.5])))

    def test_temporal_independence_identity(self):
        nl = tree_circuit()
        wl = Workload(np.array([0.2, 0.4, 0.6, 0.8]), seed=1)
        est = estimate_probabilities(nl, wl)
        assert np.allclose(est.tr01, est.logic_prob * (1 - est.logic_prob))
        assert np.allclose(est.tr01, est.tr10)
        assert np.allclose(est.toggle_rate, 2 * est.tr01)


class TestPipeline:
    def test_gt_vs_probabilistic_only(self):
        nl = family_subcircuits("opencores", 1, seed=12)[0]
        wl = random_workload(nl, 4)
        cmp = run_power_pipeline(nl, wl, sim_config=SimConfig(cycles=80, seed=4))
        assert cmp.gt_mw > 0
        prob = cmp.method("probabilistic")
        assert prob.error_pct >= 0
        with pytest.raises(KeyError):
            cmp.method("deepseq")

    def test_row_renders(self):
        nl = family_subcircuits("opencores", 1, seed=12)[0]
        wl = random_workload(nl, 4)
        cmp = run_power_pipeline(nl, wl, sim_config=SimConfig(cycles=40, seed=4))
        assert nl.name in cmp.row()

    def test_default_ground_truth_is_the_in_process_factory(self):
        """``factory=None`` labels through a fresh ``DataFactory(workers=0)``;
        the report is bit-identical to a direct simulation's, and the
        pipeline module no longer holds a simulator entry point."""
        from repro.data import DataFactory
        from repro.tasks.power import pipeline

        nl = family_subcircuits("opencores", 1, seed=12)[0]
        wl = random_workload(nl, 4)
        sim_cfg = SimConfig(cycles=60, seed=4)
        default = run_power_pipeline(nl, wl, sim_config=sim_cfg)
        factory = DataFactory(workers=0)
        assert default == run_power_pipeline(
            nl, wl, sim_config=sim_cfg, factory=factory
        )
        assert factory.stats.misses == 1
        assert default == run_power_pipeline(
            nl, wl, sim_config=sim_cfg, gt_result=simulate(nl, wl, sim_cfg)
        )
        assert not hasattr(pipeline, "simulate")

    def test_gt_result_reuse(self):
        nl = family_subcircuits("opencores", 1, seed=12)[0]
        wl = random_workload(nl, 4)
        sim_cfg = SimConfig(cycles=60, seed=4)
        gt = simulate(nl, wl, sim_cfg)
        a = run_power_pipeline(nl, wl, sim_config=sim_cfg)
        b = run_power_pipeline(nl, wl, sim_config=sim_cfg, gt_result=gt)
        assert a.gt_mw == pytest.approx(b.gt_mw)

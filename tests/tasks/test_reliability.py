"""Tests for the reliability task (repro.tasks.reliability)."""

import numpy as np
import pytest

from repro.circuit.benchmarks import family_subcircuits
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload, random_workload
from repro.tasks.reliability.analytical import (
    AnalyticalConfig,
    estimate_reliability,
    reliability_from_node_errors,
)
from repro.tasks.reliability.pipeline import run_reliability_pipeline


def inverter_chain(depth: int) -> Netlist:
    nl = Netlist(f"chain{depth}")
    cur = nl.add_pi("a")
    for k in range(depth):
        cur = nl.add_gate(GateType.NOT, [cur], f"n{k}")
    nl.add_po(cur)
    nl.validate()
    return nl


class TestReliabilityFromNodeErrors:
    def test_perfect_nodes_give_one(self):
        nl = inverter_chain(3)
        n = len(nl)
        rel = reliability_from_node_errors(
            nl, np.zeros(n), np.zeros(n), np.full(n, 0.5)
        )
        assert rel == 1.0

    def test_po_error_reduces_reliability(self):
        nl = inverter_chain(1)
        n = len(nl)
        err = np.zeros(n)
        err[nl.pos[0]] = 0.1
        rel = reliability_from_node_errors(nl, err, err, np.full(n, 0.5))
        assert rel == pytest.approx(0.9)

    def test_multiple_pos_multiply(self):
        nl = Netlist("two_pos")
        a = nl.add_pi("a")
        g1 = nl.add_gate(GateType.NOT, [a], "g1")
        g2 = nl.add_gate(GateType.NOT, [g1], "g2")
        nl.add_po(g1)
        nl.add_po(g2)
        err = np.array([0.0, 0.1, 0.2])
        rel = reliability_from_node_errors(nl, err, err, np.full(3, 0.5))
        assert rel == pytest.approx(0.9 * 0.8)


class TestAnalytical:
    def test_inverter_chain_error_composition(self):
        """Through a chain of k inverters the error probability composes as
        1-(1-eps)^k (conditional errors swap at each stage)."""
        depth = 5
        nl = inverter_chain(depth)
        eps = 1e-3
        est = estimate_reliability(
            nl, Workload(np.array([0.5]), seed=0),
            AnalyticalConfig(eps=eps, window=1),
        )
        po = nl.pos[0]
        expected = 1.0 - (1.0 - eps) ** depth
        assert est.err01[po] == pytest.approx(expected, rel=1e-6)
        assert est.err10[po] == pytest.approx(expected, rel=1e-6)

    def test_masking_at_and_gate(self):
        """An AND with one input parked at 0 masks errors on the other."""
        nl = Netlist("mask")
        a, b = nl.add_pi("a"), nl.add_pi("b")
        n1 = nl.add_gate(GateType.NOT, [a], "n1")  # carries error eps
        g = nl.add_gate(GateType.AND, [n1, b], "g")
        nl.add_po(g)
        eps = 1e-3
        # b ~ 0: output is almost always 0 and errors on n1 rarely matter.
        low = estimate_reliability(
            nl, Workload(np.array([0.5, 0.01])), AnalyticalConfig(eps=eps, window=1)
        )
        high = estimate_reliability(
            nl, Workload(np.array([0.5, 0.99])), AnalyticalConfig(eps=eps, window=1)
        )
        g_id = nl.node_by_name("g")
        assert low.err01[g_id] < high.err01[g_id]

    def test_window_monotone_pessimism(self):
        nl = family_subcircuits("iscas89", 1, seed=30)[0]
        wl = random_workload(nl, 2)
        rels = [
            estimate_reliability(nl, wl, AnalyticalConfig(eps=5e-6, window=w)).reliability
            for w in (1, 8, 32)
        ]
        assert rels[0] >= rels[1] >= rels[2]

    def test_error_probs_bounded(self):
        nl = family_subcircuits("opencores", 1, seed=31)[0]
        est = estimate_reliability(nl, random_workload(nl, 3))
        assert (est.err01 >= 0).all() and (est.err01 <= 1).all()
        assert (est.err10 >= 0).all() and (est.err10 <= 1).all()
        assert 0.0 <= est.reliability <= 1.0

    def test_error_prob_property(self):
        nl = inverter_chain(2)
        est = estimate_reliability(nl, Workload(np.array([0.5])))
        assert est.error_prob.shape == (len(nl), 2)


class TestPipeline:
    @pytest.fixture(scope="class")
    def comparison(self):
        nl = family_subcircuits("opencores", 1, seed=33)[0]
        wl = random_workload(nl, 5)
        return run_reliability_pipeline(
            nl,
            wl,
            sim_config=SimConfig(cycles=150, seed=5),
            fault_config=FaultConfig(seed=6),
        )

    def test_gt_reliability_high(self, comparison):
        assert 0.9 < comparison.gt <= 1.0

    def test_analytical_close_to_gt(self, comparison):
        assert comparison.analytical_error_pct < 25.0

    def test_no_deepseq_without_model(self, comparison):
        assert comparison.deepseq is None

    def test_row_renders(self, comparison):
        assert "opencores" in comparison.row()

    def test_default_ground_truth_is_the_in_process_factory(self, comparison):
        """``factory=None`` labels through a fresh ``DataFactory(workers=0)``:
        same report as an explicit factory, GT bit-identical to the direct
        Monte-Carlo run, no simulator entry point left in the module."""
        from repro.data import DataFactory
        from repro.sim.faults import simulate_with_faults
        from repro.tasks.reliability import pipeline

        nl = family_subcircuits("opencores", 1, seed=33)[0]
        wl = random_workload(nl, 5)
        sim, fault = SimConfig(cycles=150, seed=5), FaultConfig(seed=6)
        factory = DataFactory(workers=0)
        assert comparison == run_reliability_pipeline(
            nl, wl, sim_config=sim, fault_config=fault, factory=factory
        )
        assert factory.stats.misses == 1
        assert comparison.gt == simulate_with_faults(nl, wl, sim, fault).reliability
        assert not hasattr(pipeline, "simulate_with_faults")

"""Tests for the benchmark suites (repro.circuit.benchmarks)."""

import numpy as np
import pytest

from repro.circuit.benchmarks import (
    _AIG_COST,
    FAMILY_STATS,
    LARGE_DESIGN_SPECS,
    _IpCoreBuilder,
    family_subcircuits,
    large_design,
    training_corpus,
)
from repro.circuit.gates import GateType
from repro.circuit.stats import corpus_stats


class TestFamilies:
    def test_known_families(self):
        assert set(FAMILY_STATS) == {"iscas89", "itc99", "opencores"}

    def test_paper_counts_recorded(self):
        assert FAMILY_STATS["iscas89"].paper_count == 1159
        assert FAMILY_STATS["itc99"].paper_count == 1691
        assert FAMILY_STATS["opencores"].paper_count == 7684

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_subcircuits("nonexistent", 1)

    def test_deterministic(self):
        a = family_subcircuits("iscas89", 3, seed=5)
        b = family_subcircuits("iscas89", 3, seed=5)
        assert [len(x) for x in a] == [len(x) for x in b]

    def test_circuits_are_aig_and_valid(self):
        for nl in family_subcircuits("itc99", 3, seed=1):
            assert nl.is_aig()
            nl.validate()
            assert nl.dffs, "sequential family must contain DFFs"

    def test_non_aig_option(self):
        raw = family_subcircuits("itc99", 2, seed=1, as_aig=False)
        assert any(not nl.is_aig() for nl in raw)

    @pytest.mark.parametrize("family", sorted(FAMILY_STATS))
    def test_mean_size_tracks_family_target(self, family):
        circuits = family_subcircuits(family, 24, seed=0)
        st = corpus_stats(family, circuits)
        target = FAMILY_STATS[family].mean_nodes
        assert abs(st.mean_nodes - target) / target < 0.40, (
            st.mean_nodes,
            target,
        )

    def test_size_ordering_matches_paper(self):
        # ITC'99 sub-circuits are the largest on average, ISCAS'89 smallest.
        means = {
            fam: corpus_stats(fam, family_subcircuits(fam, 16, seed=2)).mean_nodes
            for fam in FAMILY_STATS
        }
        assert means["itc99"] > means["opencores"] > means["iscas89"]

    def test_training_corpus_counts(self):
        corpus = training_corpus({"iscas89": 2, "itc99": 3}, seed=0)
        assert len(corpus["iscas89"]) == 2
        assert len(corpus["itc99"]) == 3


class TestLargeDesigns:
    def test_all_six_specs(self):
        assert set(LARGE_DESIGN_SPECS) == {
            "noc_router",
            "pll",
            "ptc",
            "rtcclock",
            "ac97_ctrl",
            "mem_ctrl",
        }

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            large_design("cpu9000")

    def test_ptc_matches_paper_size(self):
        nl = large_design("ptc")
        assert nl.is_aig()
        paper = LARGE_DESIGN_SPECS["ptc"].paper_nodes
        assert abs(len(nl) - paper) / paper < 0.15

    def test_scale_shrinks(self):
        full = large_design("ptc")
        small = large_design("ptc", scale=0.25)
        assert len(small) < len(full) / 2

    def test_deterministic(self):
        a = large_design("ptc", seed=3)
        b = large_design("ptc", seed=3)
        assert len(a) == len(b)

    @pytest.mark.parametrize("name", sorted(LARGE_DESIGN_SPECS))
    def test_running_cost_equals_a_full_walk(self, name, monkeypatch):
        """The size estimate costs only new nodes; after every module it
        equals a walk over the whole netlist."""

        def full_walk(nl) -> float:
            total = 0.0
            for node in nl.nodes():
                gt, arity = nl.gate_type(node), len(nl.fanins(node))
                if gt in (GateType.PI, GateType.DFF):
                    total += 1.0
                elif gt in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR):
                    total += _AIG_COST[gt] * max(1, arity - 1)
                else:
                    total += _AIG_COST.get(gt, 1.0)
            return total

        running = _IpCoreBuilder._estimated_aig_nodes
        totals: list[float] = []

        def checked(builder) -> float:
            total = running(builder)
            assert total == full_walk(builder.b.nl)
            totals.append(total)
            return total

        monkeypatch.setattr(_IpCoreBuilder, "_estimated_aig_nodes", checked)
        large_design(name, seed=5, as_aig=False, scale=0.05)
        assert len(totals) >= 2 and totals == sorted(totals)

    def test_designs_have_state_and_outputs(self):
        nl = large_design("rtcclock", scale=0.125)
        assert nl.dffs
        assert nl.pos
        nl.validate()

    def test_idle_logic_under_parked_controls(self):
        """The low-power structure: with control PIs parked low, most gates
        show no transitions (paper Section V-A1: ~70 %)."""
        from repro.sim.logicsim import SimConfig, simulate
        from repro.sim.workload import Workload

        nl = large_design("ptc", scale=0.25)
        probs = np.full(len(nl.pis), 0.02)
        result = simulate(nl, Workload(probs, "parked"), SimConfig(cycles=64))
        assert result.idle_fraction(eps=1e-3) > 0.4

"""Tests for the sequential logic simulator (repro.sim.logicsim)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist
from repro.sim.logicsim import (
    SimConfig,
    Simulator,
    compile_netlist,
    simulate,
)
from repro.sim.workload import Workload

from tests.sim.reference import CycleSimulator


def toggle_ff() -> Netlist:
    """A free-running toggle flip-flop (period 2)."""
    nl = Netlist("toggle")
    ff = nl.add_dff(None, "ff")
    inv = nl.add_gate(GateType.NOT, [ff], "inv")
    nl.set_fanins(ff, [inv])
    nl.add_po(ff)
    nl.validate()
    return nl


def two_bit_counter() -> Netlist:
    nl = Netlist("cnt2")
    b0 = nl.add_dff(None, "b0")
    b1 = nl.add_dff(None, "b1")
    n0 = nl.add_gate(GateType.NOT, [b0], "n0")
    x1 = nl.add_gate(GateType.AND, [b0, b1], "carry_and")  # unused but real
    # b1' = b1 XOR b0 built from AIG gates:
    nb1 = nl.add_gate(GateType.NOT, [b1], "nb1")
    t1 = nl.add_gate(GateType.AND, [b0, nb1], "t1")
    t2 = nl.add_gate(GateType.AND, [n0, b1], "t2")
    nt1 = nl.add_gate(GateType.NOT, [t1], "nt1")
    nt2 = nl.add_gate(GateType.NOT, [t2], "nt2")
    both = nl.add_gate(GateType.AND, [nt1, nt2], "nor")
    x = nl.add_gate(GateType.NOT, [both], "xor")
    nl.set_fanins(b0, [n0])
    nl.set_fanins(b1, [x])
    nl.add_po(b1)
    nl.validate()
    return nl


class TestCompile:
    def test_ops_cover_comb_gates(self):
        nl = two_bit_counter()
        compiled = compile_netlist(nl)
        covered = sorted(
            int(n) for op in compiled.ops for n in op.nodes
        )
        comb = [
            i
            for i in nl.nodes()
            if nl.gate_type(i) not in (GateType.PI, GateType.DFF)
        ]
        assert covered == sorted(comb)

    def test_ops_in_level_order(self):
        nl = two_bit_counter()
        from repro.circuit.levelize import levelize

        lv = levelize(nl)
        compiled = compile_netlist(nl)
        last_level = 0
        for op in compiled.ops:
            level = int(lv.level[op.nodes[0]])
            assert level >= last_level
            last_level = level


class TestKnownSequences:
    def test_toggle_ff_period_two(self):
        nl = toggle_ff()
        sim = CycleSimulator(nl, streams=64)
        sim.reset()
        ff = nl.node_by_name("ff")
        seen = []
        empty = np.zeros((0, 1), dtype=np.uint64)
        for c in range(6):
            vals = sim.step(empty, c)
            seen.append(int(vals[ff, 0] & np.uint64(1)))
            sim.latch()
        assert seen == [0, 1, 0, 1, 0, 1]

    def test_counter_period_four(self):
        nl = two_bit_counter()
        sim = CycleSimulator(nl, streams=64)
        sim.reset()
        b0, b1 = nl.node_by_name("b0"), nl.node_by_name("b1")
        values = []
        empty = np.zeros((0, 1), dtype=np.uint64)
        for c in range(8):
            vals = sim.step(empty, c)
            values.append(
                int(vals[b0, 0] & np.uint64(1)) + 2 * int(vals[b1, 0] & np.uint64(1))
            )
            sim.latch()
        assert values == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_toggle_statistics(self):
        nl = toggle_ff()
        wl = Workload(np.zeros(0), "none")
        res = simulate(nl, wl, SimConfig(cycles=100, streams=64, warmup=2))
        ff = nl.node_by_name("ff")
        assert res.logic_prob[ff] == pytest.approx(0.5, abs=0.01)
        assert res.tr01_prob[ff] == pytest.approx(0.5, abs=0.01)
        assert res.tr10_prob[ff] == pytest.approx(0.5, abs=0.01)


class TestStatistics:
    def test_pi_logic_prob_matches_workload(self):
        nl = Netlist("pis")
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        g = nl.add_gate(GateType.AND, [a, b], "g")
        nl.add_po(g)
        wl = Workload(np.array([0.3, 0.7]), seed=4)
        res = simulate(nl, wl, SimConfig(cycles=400, streams=64, seed=4))
        assert res.logic_prob[a] == pytest.approx(0.3, abs=0.02)
        assert res.logic_prob[b] == pytest.approx(0.7, abs=0.02)
        # independent inputs: AND prob = product
        assert res.logic_prob[g] == pytest.approx(0.21, abs=0.02)

    def test_transition_probs_of_independent_pi(self):
        nl = Netlist("pi")
        a = nl.add_pi("a")
        n = nl.add_gate(GateType.NOT, [a], "n")
        nl.add_po(n)
        p = 0.25
        wl = Workload(np.array([p]), seed=1)
        res = simulate(nl, wl, SimConfig(cycles=500, streams=64, seed=1))
        assert res.tr01_prob[a] == pytest.approx((1 - p) * p, abs=0.01)
        assert res.tr10_prob[a] == pytest.approx(p * (1 - p), abs=0.01)

    def test_transition_vector_shape(self):
        nl = toggle_ff()
        res = simulate(nl, Workload(np.zeros(0)), SimConfig(cycles=20))
        assert res.transition_prob.shape == (len(nl), 2)
        assert (res.toggle_rate >= 0).all()
        assert res.idle_fraction() <= 1.0

    def test_probability_bounds(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=5, n_dffs=4, n_gates=40), seed=2
        )
        wl = Workload(np.linspace(0.1, 0.9, 5), seed=2)
        res = simulate(nl, wl, SimConfig(cycles=50))
        for arr in (res.logic_prob, res.tr01_prob, res.tr10_prob):
            assert (arr >= 0).all() and (arr <= 1).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_property_rising_equals_falling_long_run(self, seed):
        """In a stationary run, #rising and #falling transitions per node
        differ by at most 1 per stream."""
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=20), seed=seed
        )
        wl = Workload(np.full(4, 0.5), seed=seed)
        cfg = SimConfig(cycles=64, streams=64, seed=seed)
        res = simulate(nl, wl, cfg)
        pairs = (cfg.cycles - 1) * 64
        max_gap = 64 / pairs  # one unmatched edge per stream
        gap = np.abs(res.tr01_prob - res.tr10_prob)
        assert (gap <= max_gap + 1e-9).all()


class TestConfig:
    def test_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            SimConfig(cycles=1)
        with pytest.raises(ValueError):
            SimConfig(warmup=-1)

    def test_reset_randomizes_state(self):
        nl = toggle_ff()
        sim = Simulator(nl, streams=64)
        sim.reset("random", np.random.default_rng(1))
        ff = nl.node_by_name("ff")
        word = sim.values[ff, 0]
        assert word != 0 and word != np.uint64(0xFFFFFFFFFFFFFFFF)
        with pytest.raises(ValueError):
            sim.reset("warm")

    def test_deterministic_runs(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25), seed=6
        )
        wl = Workload(np.full(4, 0.4), seed=6)
        cfg = SimConfig(cycles=40, seed=11)
        a = simulate(nl, wl, cfg)
        b = simulate(nl, wl, cfg)
        assert (a.logic_prob == b.logic_prob).all()
        assert (a.tr01_prob == b.tr01_prob).all()


class TestWorkloadSeedOwnership:
    """Regression: ``simulate`` used to override every workload's seed with
    ``SimConfig.seed``, so distinct workloads in one dataset replayed the
    same underlying uniform draws (correlated samples)."""

    def _two_pi_netlist(self):
        nl = Netlist("pis2")
        a = nl.add_pi("a")
        g = nl.add_gate(GateType.NOT, [a], "g")
        nl.add_po(g)
        return nl

    def test_distinct_workload_seeds_decorrelate_stimulus(self):
        nl = self._two_pi_netlist()
        cfg = SimConfig(cycles=64, streams=64, seed=9)
        wl_a = Workload(np.array([0.5]), "a", seed=1)
        wl_b = Workload(np.array([0.5]), "b", seed=2)
        res_a = simulate(nl, wl_a, cfg)
        res_b = simulate(nl, wl_b, cfg)
        # Identical probabilities, identical SimConfig — under the old bug
        # both runs were bitwise identical.  Different seeds must yield
        # different empirical statistics.
        assert not np.array_equal(res_a.logic_prob, res_b.logic_prob)
        assert not np.array_equal(res_a.tr01_prob, res_b.tr01_prob)

    def test_same_workload_seed_reproduces(self):
        nl = self._two_pi_netlist()
        wl = Workload(np.array([0.5]), seed=3)
        # The config seed no longer leaks into pattern generation.
        a = simulate(nl, wl, SimConfig(cycles=64, streams=64, seed=0))
        b = simulate(nl, wl, SimConfig(cycles=64, streams=64, seed=17))
        assert np.array_equal(a.logic_prob, b.logic_prob)
        assert np.array_equal(a.tr01_prob, b.tr01_prob)

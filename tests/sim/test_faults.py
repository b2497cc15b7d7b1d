"""Tests for Monte-Carlo fault injection (repro.sim.faults)."""

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist
from repro.sim.bitvec import popcount
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload, random_workload

from tests.sim.reference import FaultInjector


@pytest.fixture()
def circuit():
    return random_sequential_netlist(
        GeneratorConfig(n_pis=5, n_dffs=4, n_gates=40), seed=21
    )


@pytest.fixture()
def workload(circuit):
    return random_workload(circuit, seed=2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(episode_cycles=1)

    @pytest.mark.parametrize("rate", [0.6, 0.9, 1.0])
    def test_unreachable_per_cycle_rate_rejected(self, rate):
        """The AND-of-k-words mask tops out at density 0.5 (k = 1); a
        higher per-cycle rate used to be accepted and silently injected
        ~0.5 instead."""
        with pytest.raises(ValueError, match="exceeds 0.5"):
            FaultConfig(fault_rate=rate, per_pattern=False)
        # Per pattern the same rate is spread over >= 2 cycles, so the
        # per-cycle rate never passes 0.5 and the config stays valid.
        fc = FaultConfig(fault_rate=rate, episode_cycles=2, per_pattern=True)
        assert fc.effective_cycle_rate == pytest.approx(rate / 2)

    def test_densest_rate_is_injected_as_configured(self):
        fc = FaultConfig(fault_rate=0.5, per_pattern=False)
        injector = FaultInjector(
            fc.effective_cycle_rate, 4, np.random.default_rng(0)
        )
        mask = injector.mask(0, np.arange(2500))
        assert popcount(mask).sum() / (mask.size * 64) == pytest.approx(0.5, abs=5e-3)

    def test_effective_rate_per_pattern(self):
        fc = FaultConfig(fault_rate=5e-4, episode_cycles=100, per_pattern=True)
        assert fc.effective_cycle_rate == pytest.approx(5e-6)

    def test_effective_rate_per_cycle(self):
        fc = FaultConfig(fault_rate=5e-4, per_pattern=False)
        assert fc.effective_cycle_rate == pytest.approx(5e-4)


class TestFaultFree:
    def test_zero_rate_gives_perfect_reliability(self, circuit, workload):
        res = simulate_with_faults(
            circuit,
            workload,
            SimConfig(cycles=60, seed=3),
            FaultConfig(fault_rate=0.0),
        )
        assert res.reliability == 1.0
        assert res.err01.max() == 0.0
        assert res.err10.max() == 0.0


class TestFaulty:
    def test_errors_increase_with_rate(self, circuit, workload):
        cfg = SimConfig(cycles=100, seed=3)
        low = simulate_with_faults(
            circuit, workload, cfg, FaultConfig(fault_rate=1e-3, per_pattern=False)
        )
        high = simulate_with_faults(
            circuit, workload, cfg, FaultConfig(fault_rate=3e-2, per_pattern=False)
        )
        assert high.err01.mean() > low.err01.mean()
        assert high.reliability < low.reliability

    def test_reliability_in_unit_interval(self, circuit, workload):
        res = simulate_with_faults(
            circuit, workload, SimConfig(cycles=80, seed=3), FaultConfig()
        )
        assert 0.0 <= res.reliability <= 1.0
        assert (res.err01 >= 0).all() and (res.err01 <= 1).all()
        assert (res.err10 >= 0).all() and (res.err10 <= 1).all()

    def test_error_prob_shape(self, circuit, workload):
        res = simulate_with_faults(
            circuit, workload, SimConfig(cycles=40, seed=1), FaultConfig()
        )
        assert res.error_prob.shape == (len(circuit), 2)

    def test_pis_never_err(self, circuit, workload):
        """Faults hit combinational gates; PI values are stimulus."""
        res = simulate_with_faults(
            circuit,
            workload,
            SimConfig(cycles=60, seed=3),
            FaultConfig(fault_rate=1e-2, per_pattern=False),
        )
        for pi in circuit.pis:
            assert res.err01[pi] == 0.0
            assert res.err10[pi] == 0.0

    def test_deterministic(self, circuit, workload):
        args = (circuit, workload, SimConfig(cycles=50, seed=9), FaultConfig(seed=4))
        a = simulate_with_faults(*args)
        b = simulate_with_faults(*args)
        assert a.reliability == b.reliability
        assert (a.err01 == b.err01).all()

    def test_episode_reset_bounds_divergence(self):
        """Short episodes must not let state divergence accumulate: the
        same total cycle count split into shorter patterns yields equal or
        higher reliability."""
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=6, n_gates=50), seed=31
        )
        wl = random_workload(nl, 5)
        cfg = SimConfig(cycles=240, seed=7)
        rate = FaultConfig(fault_rate=2e-2, per_pattern=False, episode_cycles=120)
        long_ep = simulate_with_faults(nl, wl, cfg, rate)
        short = FaultConfig(fault_rate=2e-2, per_pattern=False, episode_cycles=20)
        short_ep = simulate_with_faults(nl, wl, cfg, short)
        assert short_ep.reliability >= long_ep.reliability - 0.02


class TestObservationCounts:
    def test_observed_counts_partition_samples(self, circuit, workload):
        cfg = SimConfig(cycles=50, seed=3)
        res = simulate_with_faults(circuit, workload, cfg, FaultConfig())
        total = res.observed0 + res.observed1
        assert (total == total[0]).all(), "every node observed equally often"


class TestGoldenActivityStats:
    def test_golden_logic_prob_matches_standalone_sim(self, circuit, workload):
        # With a single episode (episode_cycles >= cycles) the golden
        # machine runs exactly the schedule of ``simulate`` — reset, one
        # warmup stretch, observed cycles — on the same pattern stream, so
        # the exposed golden stats must be float64-bitwise identical to a
        # standalone fault-free simulation.  This is what lets
        # build_reliability_dataset drop its second full simulation.
        from repro.sim.logicsim import simulate

        cfg = SimConfig(cycles=60, seed=3)
        fault = FaultConfig(episode_cycles=60, seed=4)
        res = simulate_with_faults(circuit, workload, cfg, fault)
        golden = simulate(circuit, workload, cfg)
        assert np.array_equal(res.golden_logic_prob, golden.logic_prob)

    def test_sample_counts_cover_every_observed_cycle(self, circuit, workload):
        cfg = SimConfig(cycles=50, streams=64, seed=3)
        res = simulate_with_faults(circuit, workload, cfg, FaultConfig())
        total = res.observed0 + res.observed1
        assert (total == total[0]).all(), "every node observed every sample"
        assert res.samples == 50 * 64
        assert (res.golden_logic_prob >= 0).all()
        assert (res.golden_logic_prob <= 1).all()

    def test_workload_seed_drives_fault_sim_stimulus(self, circuit):
        # The lockstep source follows the workload's seed (like simulate);
        # distinct seeds must decorrelate the golden statistics.
        cfg = SimConfig(cycles=40, seed=3)
        probs = np.full(len(circuit.pis), 0.5)
        res_a = simulate_with_faults(
            circuit, Workload(probs, seed=1), cfg, FaultConfig()
        )
        res_b = simulate_with_faults(
            circuit, Workload(probs, seed=2), cfg, FaultConfig()
        )
        assert not np.array_equal(res_a.golden_logic_prob, res_b.golden_logic_prob)

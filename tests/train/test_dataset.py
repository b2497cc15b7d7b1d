"""Tests for dataset building (repro.train.dataset)."""

import numpy as np
import pytest

from repro.circuit.benchmarks import family_subcircuits
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import Workload
from repro.train.dataset import build_dataset, build_reliability_dataset

from tests.runtime.test_differential import merge_samples

SIM = SimConfig(cycles=40, streams=64, seed=1)


@pytest.fixture(scope="module")
def circuits():
    return family_subcircuits("iscas89", 3, seed=4)


class TestBuildDataset:
    def test_one_sample_per_circuit(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        assert len(ds) == len(circuits)
        for sample, nl in zip(ds, circuits):
            assert sample.num_nodes == len(nl)
            assert sample.name == nl.name

    def test_labels_match_direct_simulation(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        s = ds[0]
        redo = simulate(circuits[0], s.workload, SIM)
        assert (s.target_lg == redo.logic_prob).all()
        assert (s.target_tr == redo.transition_prob).all()

    def test_label_shapes_and_ranges(self, circuits):
        for s in build_dataset(circuits, SIM, seed=0):
            assert s.target_tr.shape == (s.num_nodes, 2)
            assert s.target_lg.shape == (s.num_nodes,)
            assert (s.target_tr >= 0).all() and (s.target_tr <= 1).all()

    def test_distinct_workloads_per_circuit(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        probs = [tuple(np.round(s.workload.pi_probs, 6)) for s in ds]
        assert len(set(probs)) == len(ds)

    def test_explicit_workloads_used(self, circuits):
        wls = [
            Workload(np.full(len(nl.pis), 0.5), f"w{k}", seed=k)
            for k, nl in enumerate(circuits)
        ]
        ds = build_dataset(circuits, SIM, seed=0, workloads=wls)
        for s, wl in zip(ds, wls):
            assert s.workload is wl

    def test_sim_result_stashed(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        assert "sim" in ds[0].extras

    def test_keep_sim_false_gives_lean_samples(self, circuits):
        lean = build_dataset(circuits, SIM, seed=0, keep_sim=False)
        full = build_dataset(circuits, SIM, seed=0)
        for a, b in zip(lean, full):
            assert a.extras == {}
            assert (a.target_tr == b.target_tr).all()
            assert (a.target_lg == b.target_lg).all()

    def test_dataset_seeds_do_not_alias(self, circuits):
        # Regression: with the affine per-circuit seed derivation,
        # different dataset seeds could hand two circuits the same
        # workload stream.  Spawned seeds never collide across datasets.
        from repro.train.dataset import dataset_workloads

        seeds = set()
        for ds_seed in range(4):
            for wl in dataset_workloads(circuits, ds_seed):
                assert wl.seed not in seeds
                seeds.add(wl.seed)

    def test_workload_count_mismatch_rejected(self, circuits):
        from repro.train.dataset import dataset_workloads

        with pytest.raises(ValueError):
            dataset_workloads(circuits, 0, workloads=[])


class TestReliabilityDataset:
    def test_error_prob_targets(self, circuits):
        ds = build_reliability_dataset(
            circuits[:2], SIM, FaultConfig(fault_rate=1e-2, per_pattern=False), seed=0
        )
        for s in ds:
            assert s.target_tr.shape == (s.num_nodes, 2)
            assert s.target_tr.max() > 0.0, "faults must produce errors"
            assert "faults" in s.extras

    def test_lg_target_is_fault_free(self, circuits):
        # One episode == the standalone-simulate schedule, so the golden
        # stats read off the lockstep run must equal a direct fault-free
        # simulation bitwise (no second simulation needed to label LG).
        fault = FaultConfig(episode_cycles=SIM.cycles)
        ds = build_reliability_dataset(circuits[:1], SIM, fault, seed=0)
        s = ds[0]
        golden = simulate(circuits[0], s.workload, SIM)
        assert (s.target_lg == golden.logic_prob).all()

    def test_no_redundant_fault_free_simulation(self, circuits, monkeypatch):
        # Regression: build_reliability_dataset used to run a second full
        # fault-free simulation per circuit; the golden activity now comes
        # off the lockstep run inside simulate_with_faults.
        import repro.train.dataset as dataset_mod

        def boom(*args, **kwargs):
            raise AssertionError("build_reliability_dataset must not re-simulate")

        monkeypatch.setattr(dataset_mod, "simulate", boom)
        ds = build_reliability_dataset(circuits[:1], SIM, FaultConfig(), seed=0)
        assert (ds[0].target_lg >= 0).all()

    def test_keep_sim_false_drops_extras(self, circuits):
        ds = build_reliability_dataset(
            circuits[:1], SIM, FaultConfig(), seed=0, keep_sim=False
        )
        assert ds[0].extras == {}


class TestMergeSamples:
    def test_single_passthrough(self, circuits):
        ds = build_dataset(circuits[:1], SIM, seed=0)
        assert merge_samples(ds) is ds[0]

    def test_merged_sizes(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        merged = merge_samples(ds)
        total = sum(s.num_nodes for s in ds)
        assert merged.num_nodes == total
        assert merged.target_tr.shape == (total, 2)
        assert merged.target_lg.shape == (total,)

    def test_targets_concatenate_in_member_order(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        merged = merge_samples(ds)
        offset = 0
        for s in ds:
            np.testing.assert_array_equal(
                merged.target_lg[offset : offset + s.num_nodes], s.target_lg
            )
            offset += s.num_nodes

    def test_workload_concatenates(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        merged = merge_samples(ds)
        expected = np.concatenate([s.workload.pi_probs for s in ds])
        assert (merged.workload.pi_probs == expected).all()

    def test_merged_graph_valid(self, circuits):
        ds = build_dataset(circuits, SIM, seed=0)
        merged = merge_samples(ds)
        merged.graph.netlist.validate()
        assert merged.extras["members"] == [s.name for s in ds]

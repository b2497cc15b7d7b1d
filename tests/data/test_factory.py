"""Differential tests for the parallel data factory (repro.data.factory).

The factory's core guarantee: serial, pooled and warm-cache builds are
float64-bitwise-identical to the reference loops in
:mod:`repro.train.dataset` — scheduling and caching never touch label
values.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuit.benchmarks import family_subcircuits
from repro.data import DataFactory, FactoryConfig
from repro.data.cache import decode_entry
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.pack import sim_pack_cache_info
from repro.sim.workload import random_workload
from repro.train.dataset import build_dataset, build_reliability_dataset

SIM = SimConfig(cycles=30, streams=64, seed=1)
FAULT = FaultConfig(fault_rate=1e-2, per_pattern=False, seed=2)


@pytest.fixture(scope="module")
def circuits():
    return family_subcircuits("iscas89", 3, seed=4)


@pytest.fixture(scope="module")
def reference(circuits):
    return build_dataset(circuits, SIM, seed=0)


def assert_bitwise(a, b):
    assert a.name == b.name
    assert np.array_equal(a.target_tr, b.target_tr)
    assert np.array_equal(a.target_lg, b.target_lg)
    assert np.array_equal(a.workload.pi_probs, b.workload.pi_probs)
    assert a.workload.seed == b.workload.seed


class TestBuildDifferential:
    def test_serial_factory_matches_reference(self, circuits, reference):
        built = DataFactory(FactoryConfig(workers=0)).build(circuits, SIM, seed=0)
        for a, b in zip(reference, built):
            assert_bitwise(a, b)

    def test_pooled_factory_matches_reference(self, circuits, reference):
        built = DataFactory(FactoryConfig(workers=2)).build(circuits, SIM, seed=0)
        for a, b in zip(reference, built):
            assert_bitwise(a, b)

    def test_warm_memory_matches_reference(self, circuits, reference):
        factory = DataFactory(FactoryConfig(workers=0))
        factory.build(circuits, SIM, seed=0)
        warm = factory.build(circuits, SIM, seed=0)
        assert factory.stats.misses == len(circuits), "second build all-hit"
        assert factory.stats.memory_hits >= len(circuits)
        for a, b in zip(reference, warm):
            assert_bitwise(a, b)

    def test_warm_disk_matches_reference(self, circuits, reference, tmp_path):
        DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path)).build(
            circuits, SIM, seed=0
        )
        fresh = DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path))
        warm = fresh.build(circuits, SIM, seed=0)
        assert fresh.stats.misses == 0
        assert fresh.stats.disk_hits == len(circuits)
        for a, b in zip(reference, warm):
            assert_bitwise(a, b)

    def test_reliability_matches_reference(self, circuits):
        serial = build_reliability_dataset(circuits[:2], SIM, FAULT, seed=0)
        built = DataFactory(FactoryConfig(workers=0)).build_reliability(
            circuits[:2], SIM, FAULT, seed=0
        )
        for a, b in zip(serial, built):
            assert_bitwise(a, b)

    def test_explicit_workloads(self, circuits, reference):
        wls = [s.workload for s in reference]
        built = DataFactory(FactoryConfig(workers=0)).build(
            circuits, SIM, workloads=wls
        )
        for a, b in zip(reference, built):
            assert_bitwise(a, b)


class TestExtras:
    def test_lean_by_default(self, circuits):
        built = DataFactory(FactoryConfig(workers=0)).build(circuits, SIM, seed=0)
        assert all(s.extras == {} for s in built)

    def test_keep_sim_reconstructs_full_result(self, circuits):
        built = DataFactory(FactoryConfig(workers=0)).build(
            circuits, SIM, seed=0, keep_sim=True
        )
        s = built[0]
        res = s.extras["sim"]
        direct = simulate(circuits[0], s.workload, SIM)
        assert np.array_equal(res.logic_prob, direct.logic_prob)
        assert np.array_equal(res.transition_prob, direct.transition_prob)
        assert res.cycles == direct.cycles and res.streams == direct.streams
        assert res.netlist is circuits[0]

    def test_keep_sim_reliability(self, circuits):
        built = DataFactory(FactoryConfig(workers=0)).build_reliability(
            circuits[:1], SIM, FAULT, seed=0, keep_sim=True
        )
        res = built[0].extras["faults"]
        direct = simulate_with_faults(circuits[0], built[0].workload, SIM, FAULT)
        assert np.array_equal(res.error_prob, direct.error_prob)
        assert res.reliability == direct.reliability


class TestCachedEntryLayout:
    """Results <-> label dicts go through one field table; the order and
    dtypes it yields are the on-disk format (manifest order = bytes)."""

    def test_disk_entries_keep_their_fields_and_results_their_types(
        self, circuits, tmp_path
    ):
        nl = circuits[0]
        wl = random_workload(nl, seed=8)
        cold = DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path))
        sim, faults = cold.simulate(nl, wl, SIM), cold.simulate_faults(nl, wl, SIM, FAULT)
        layouts = set()
        for path in tmp_path.glob("*/*.lbl"):
            entry = decode_entry(path.read_bytes())
            layouts.add(tuple((k, v.dtype.str, v.ndim) for k, v in entry.items()))
        assert layouts == {
            (
                ("logic_prob", "<f8", 1),
                ("tr01_prob", "<f8", 1),
                ("tr10_prob", "<f8", 1),
                ("cycles", "<i8", 0),
                ("streams", "<i8", 0),
            ),
            (
                ("err01", "<f8", 1),
                ("err10", "<f8", 1),
                ("reliability", "<f8", 0),
                ("observed0", "<i8", 1),
                ("observed1", "<i8", 1),
            ),
        }
        warm = DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path))
        sim2, faults2 = warm.simulate(nl, wl, SIM), warm.simulate_faults(nl, wl, SIM, FAULT)
        assert warm.stats.misses == 0
        for a, b in ((sim, sim2), (faults, faults2)):
            assert type(a) is type(b) and a.netlist is b.netlist is nl
        assert type(sim2.cycles) is type(sim2.streams) is int
        assert (sim2.cycles, sim2.streams) == (sim.cycles, sim.streams)
        assert type(faults2.reliability) is float
        assert faults2.reliability == faults.reliability
        assert np.array_equal(faults2.observed1, faults.observed1)


class TestScheduling:
    def test_duplicate_jobs_simulated_once(self, circuits):
        factory = DataFactory(FactoryConfig(workers=0))
        nl = circuits[0]
        wl = random_workload(nl, seed=5)
        built = factory.build([nl, nl, nl], SIM, workloads=[wl, wl, wl])
        assert factory.stats.misses == 1, "identical digests collapse"
        for a, b in zip(built, built[1:]):
            assert np.array_equal(a.target_tr, b.target_tr)

    def test_single_sim_cached(self, circuits):
        factory = DataFactory(FactoryConfig(workers=0))
        wl = random_workload(circuits[0], seed=6)
        a = factory.simulate(circuits[0], wl, SIM)
        b = factory.simulate(circuits[0], wl, SIM)
        assert factory.stats.misses == 1
        assert np.array_equal(a.logic_prob, b.logic_prob)
        direct = simulate(circuits[0], wl, SIM)
        assert np.array_equal(a.logic_prob, direct.logic_prob)
        assert np.array_equal(a.tr01_prob, direct.tr01_prob)

    def test_single_fault_sim_cached(self, circuits):
        factory = DataFactory(FactoryConfig(workers=0))
        wl = random_workload(circuits[0], seed=6)
        a = factory.simulate_faults(circuits[0], wl, SIM, FAULT)
        factory.simulate_faults(circuits[0], wl, SIM, FAULT)
        assert factory.stats.misses == 1
        direct = simulate_with_faults(circuits[0], wl, SIM, FAULT)
        assert np.array_equal(a.error_prob, direct.error_prob)
        assert np.array_equal(a.golden_logic_prob, direct.golden_logic_prob)
        assert a.reliability == direct.reliability

    def test_mixed_kinds_do_not_collide(self, circuits):
        factory = DataFactory(FactoryConfig(workers=0))
        wl = random_workload(circuits[0], seed=6)
        sim_res = factory.simulate(circuits[0], wl, SIM)
        fault_res = factory.simulate_faults(circuits[0], wl, SIM, FAULT)
        assert factory.stats.misses == 2
        assert not np.array_equal(sim_res.transition_prob, fault_res.error_prob)


class TestPackedScheduling:
    """pack_size groups misses into super-graph sweeps; label values and
    cache keys must be unaffected by the grouping."""

    @pytest.mark.parametrize("pack_size", [1, 2, 3, 8])
    def test_build_bitwise_across_pack_sizes(
        self, circuits, reference, pack_size
    ):
        factory = DataFactory(FactoryConfig(workers=0, pack_size=pack_size))
        built = factory.build(circuits, SIM, seed=0)
        for a, b in zip(reference, built):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("pack_size", [1, 4])
    def test_simulate_many_matches_direct(self, circuits, pack_size):
        workloads = [random_workload(nl, 50 + i) for i, nl in enumerate(circuits)]
        factory = DataFactory(FactoryConfig(workers=0, pack_size=pack_size))
        got = factory.simulate_many(list(circuits), workloads, SIM)
        for nl, wl, g in zip(circuits, workloads, got):
            ref = simulate(nl, wl, SIM)
            assert np.array_equal(ref.logic_prob, g.logic_prob)
            assert np.array_equal(ref.tr01_prob, g.tr01_prob)
            assert np.array_equal(ref.tr10_prob, g.tr10_prob)

    def test_simulate_faults_many_matches_direct(self, circuits):
        workloads = [random_workload(nl, 60 + i) for i, nl in enumerate(circuits)]
        factory = DataFactory(FactoryConfig(workers=0, pack_size=2))
        got = factory.simulate_faults_many(
            list(circuits), workloads, SIM, FAULT
        )
        for nl, wl, g in zip(circuits, workloads, got):
            ref = simulate_with_faults(nl, wl, SIM, FAULT)
            assert np.array_equal(ref.err01, g.err01)
            assert np.array_equal(ref.err10, g.err10)
            assert ref.reliability == g.reliability

    def test_packed_build_reads_unpacked_cache(self, circuits, tmp_path):
        unpacked = DataFactory(
            FactoryConfig(workers=0, pack_size=1, cache_dir=tmp_path)
        )
        unpacked.build(circuits, SIM, seed=0)
        packed = DataFactory(
            FactoryConfig(workers=0, pack_size=8, cache_dir=tmp_path)
        )
        packed.build(circuits, SIM, seed=0)
        assert packed.stats.misses == 0, "pack grouping must not move keys"
        assert packed.stats.disk_hits == len(circuits)

    def test_pooled_packed_build_matches_reference(self, circuits, reference):
        factory = DataFactory(FactoryConfig(workers=2, pack_size=2))
        built = factory.build(circuits, SIM, seed=0)
        for a, b in zip(reference, built):
            assert_bitwise(a, b)


class TestOneSchedulingLoop:
    """Every (workers, pack_size, kind) cell runs the same loop over the
    same job; only group size and where the job runs differ."""

    @staticmethod
    def build(factory, kind, nls, wls):
        if kind == "sim":
            return factory.build(nls, SIM, workloads=wls)
        return factory.build_reliability(nls, SIM, FAULT, workloads=wls)

    @pytest.mark.parametrize("kind", ["sim", "fault"])
    @pytest.mark.parametrize("pack_size", [1, 3, 8])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_partially_warm_batch_matches_serial_reference(
        self, circuits, workers, pack_size, kind
    ):
        batch = [circuits[0], circuits[1], circuits[0], circuits[2], circuits[1]]
        wls = [random_workload(nl, 100 + i) for i, nl in enumerate(batch)]
        # Positions 0 and 2 are one digest (same netlist, same workload).
        wls[2] = wls[0]
        if kind == "sim":
            reference = build_dataset(batch, SIM, workloads=wls)
        else:
            reference = build_reliability_dataset(batch, SIM, FAULT, workloads=wls)
        factory = DataFactory(FactoryConfig(workers=workers, pack_size=pack_size))
        self.build(factory, kind, batch[1:2], wls[1:2])  # warm 1 of 4 digests
        assert factory.stats.puts == 1
        built = self.build(factory, kind, batch, wls)
        assert factory.stats.puts == 4, "one put per unique miss"
        for a, b in zip(reference, built):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("kind", ["sim", "fault"])
    def test_group_of_one_stays_off_the_pack_lru(self, circuits, kind):
        factory = DataFactory(FactoryConfig(workers=0, pack_size=1))
        before = sim_pack_cache_info()
        self.build(factory, kind, circuits, None)
        assert factory.stats.puts == len(circuits)
        assert sim_pack_cache_info() == before


class TestCorruptDiskEntry:
    def test_build_recovers_and_rewrites_entry(self, circuits, reference, tmp_path):
        DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path)).build(
            circuits, SIM, seed=0
        )
        victim = sorted(tmp_path.glob("*/*.lbl"))[0]
        victim.write_bytes(victim.read_bytes()[:100])  # truncated entry
        fresh = DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path))
        built = fresh.build(circuits, SIM, seed=0)
        for a, b in zip(reference, built):
            assert_bitwise(a, b)
        assert (fresh.stats.misses, fresh.stats.puts) == (1, 1)
        again = DataFactory(FactoryConfig(workers=0, cache_dir=tmp_path))
        again.build(circuits, SIM, seed=0)
        assert again.stats.disk_hits == len(circuits), "entry reloads cleanly"


class TestForkSafety:
    """The simulation pool must use an explicit safe start method.

    Default ``fork`` snapshots the parent's locks — a fork taken while a
    serve worker holds a model or metrics lock produces a child that
    deadlocks on first acquire.  The factory therefore resolves its pool
    context through :func:`repro.runtime.mp.resolve_mp_context`.
    """

    def test_config_exposes_start_method(self):
        cfg = FactoryConfig(workers=2, mp_start_method="spawn")
        assert cfg.mp_start_method == "spawn"
        assert FactoryConfig().mp_start_method is None

    def test_pooled_build_with_live_server(self, circuits, reference):
        """The regression: a pooled build while a threaded Server is live
        (its workers holding/releasing locks under traffic) must complete
        and stay bitwise-correct.  Under fork start this interleaving can
        deadlock the pool children; forkserver/spawn cannot inherit the
        server's lock states at all."""
        from repro.models.base import ModelConfig
        from repro.models.deepseq import DeepSeq
        from repro.serve import Server
        from tests.conftest import build_pair

        model = DeepSeq(ModelConfig(hidden=10, iterations=2, seed=0))
        pair = build_pair(seed=0, n_dffs=2, n_gates=20)
        with Server(model, workers=2, batch_size=2, max_latency_ms=5,
                    dtype="float64") as srv:
            stop = False

            def traffic():
                while not stop:
                    srv.predict(*pair)

            import threading

            t = threading.Thread(target=traffic)
            t.start()
            try:
                # This box may report 1 CPU; force a real pool.
                built = DataFactory(FactoryConfig(workers=2)).build(
                    circuits, SIM, seed=0
                )
            finally:
                stop = True
                t.join(timeout=60)
            assert not t.is_alive()
        for a, b in zip(reference, built):
            assert_bitwise(a, b)


GUARDLESS_SCRIPT = """
from repro.circuit.benchmarks import family_subcircuits
from repro.data import DataFactory, FactoryConfig
from repro.sim.logicsim import SimConfig

circuits = family_subcircuits("iscas89", 4, seed=4)
DataFactory(FactoryConfig(workers=2)).build(circuits, SimConfig(cycles=8), seed=0)
"""


def _session_members(sid: int) -> list[int]:
    """Live processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    members.append(int(entry))
            except (ProcessLookupError, PermissionError):
                pass
    return members


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
class TestWorkerDeath:
    def test_guardless_script_gets_a_typed_error(self, tmp_path):
        """A pooled build from a script with no ``__main__`` guard: every
        worker re-imports the script, starts a pool of its own during
        bootstrap and dies.  The caller gets one repro error naming the
        cause, and no process of the run outlives it."""
        script = tmp_path / "guardless.py"
        script.write_text(GUARDLESS_SCRIPT)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            _, stderr = proc.communicate(timeout=300)
        assert proc.returncode != 0
        assert "LabelWorkerError" in stderr, stderr
        assert "__main__" in stderr
        deadline = time.monotonic() + 30
        while _session_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _session_members(proc.pid) == []


class TestFingerprintShipping:
    """Pooled builds ship netlists to workers once, by fingerprint.

    Each unique netlist is pickled a single time into the pool
    initializer payload; jobs then carry only the fingerprint string.
    The shipping mechanics must be invisible in the results.
    """

    def test_pooled_unpacked_build_matches_reference(self, circuits, reference):
        built = DataFactory(FactoryConfig(workers=2, pack_size=1)).build(
            circuits, SIM, seed=0
        )
        for a, b in zip(reference, built):
            assert_bitwise(a, b)

    def test_pooled_packed_simulate_many_matches_direct(self, circuits):
        workloads = [random_workload(nl, 70 + i) for i, nl in enumerate(circuits)]
        factory = DataFactory(FactoryConfig(workers=2, pack_size=2))
        got = factory.simulate_many(list(circuits), workloads, SIM)
        for nl, wl, g in zip(circuits, workloads, got):
            ref = simulate(nl, wl, SIM)
            assert np.array_equal(ref.logic_prob, g.logic_prob)
            assert np.array_equal(ref.tr01_prob, g.tr01_prob)
            assert np.array_equal(ref.tr10_prob, g.tr10_prob)

    def test_pooled_faults_match_direct(self, circuits):
        workloads = [random_workload(nl, 80 + i) for i, nl in enumerate(circuits)]
        factory = DataFactory(FactoryConfig(workers=2, pack_size=1))
        got = factory.simulate_faults_many(list(circuits), workloads, SIM, FAULT)
        for nl, wl, g in zip(circuits, workloads, got):
            ref = simulate_with_faults(nl, wl, SIM, FAULT)
            assert np.array_equal(ref.err01, g.err01)
            assert np.array_equal(ref.err10, g.err10)
            assert ref.reliability == g.reliability

    def test_payload_dedups_duplicate_netlists(self, circuits):
        import pickle

        nl = circuits[0]
        batch = [nl, nl, circuits[1], nl]
        fps = [c.fingerprint() for c in batch]
        payload = DataFactory._pending_payload(batch, fps, range(len(batch)))
        shipped = pickle.loads(payload)
        assert set(shipped) == {circuits[0].fingerprint(), circuits[1].fingerprint()}
        assert len(shipped) == 2, "duplicate netlists pickled once"

    def test_pooled_build_with_duplicates_matches_serial(self, circuits):
        nl = circuits[0]
        batch = [nl, nl, circuits[1]]
        wls = [random_workload(c, 90 + i) for i, c in enumerate(batch)]
        serial = DataFactory(FactoryConfig(workers=0)).build(
            batch, SIM, workloads=wls
        )
        pooled = DataFactory(FactoryConfig(workers=2)).build(
            batch, SIM, workloads=wls
        )
        for a, b in zip(serial, pooled):
            assert_bitwise(a, b)

    def test_unregistered_fingerprint_is_a_hard_error(self):
        from repro.data.factory import _registered

        with pytest.raises(RuntimeError, match="fingerprint"):
            _registered("no-such-fp")

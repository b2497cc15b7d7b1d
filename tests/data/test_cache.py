"""Tests for the content-addressed label cache (repro.data.cache)."""

import numpy as np
import pytest

from repro.data.cache import LabelCache, label_key
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload


FP = "a" * 64
WL = Workload(np.array([0.25, 0.75]), name="w", seed=7)
SIM = SimConfig(cycles=40, streams=64, seed=1)


def _bitflip(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x10  # lands in array data: CRC mismatch
    return bytes(flipped)


#: Ways an on-disk entry goes bad, as ``good bytes -> bad bytes``.
CORRUPTIONS = {
    "garbage": lambda data: b"not an npz",
    "truncated": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "bitflipped": _bitflip,
}


class TestLabelKey:
    def test_deterministic(self):
        assert label_key("sim", FP, WL, SIM) == label_key("sim", FP, WL, SIM)

    def test_workload_name_is_cosmetic(self):
        renamed = Workload(WL.pi_probs, name="other", seed=WL.seed)
        assert label_key("sim", FP, WL, SIM) == label_key("sim", FP, renamed, SIM)

    def test_streams_normalize_to_words(self):
        # The simulator rounds streams up to whole 64-bit words, so 60 and
        # 64 run identical lanes — one cache entry, not two.
        a = label_key("sim", FP, WL, SimConfig(cycles=40, streams=60))
        b = label_key("sim", FP, WL, SimConfig(cycles=40, streams=64))
        c = label_key("sim", FP, WL, SimConfig(cycles=40, streams=65))
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda: label_key("fault", FP, WL, SIM),
            lambda: label_key("sim", "b" * 64, WL, SIM),
            lambda: label_key("sim", FP, Workload(WL.pi_probs, seed=8), SIM),
            lambda: label_key(
                "sim", FP, Workload(np.array([0.25, 0.74]), seed=7), SIM
            ),
            lambda: label_key("sim", FP, WL, SimConfig(cycles=41, streams=64, seed=1)),
            lambda: label_key("sim", FP, WL, SimConfig(cycles=40, streams=128, seed=1)),
            lambda: label_key(
                "sim", FP, WL, SimConfig(cycles=40, streams=64, seed=2)
            ),
            lambda: label_key(
                "sim", FP, WL, SimConfig(cycles=40, streams=64, seed=1, warmup=9)
            ),
            lambda: label_key(
                "sim",
                FP,
                WL,
                SimConfig(cycles=40, streams=64, seed=1, init_state="random"),
            ),
            lambda: label_key("sim", FP, WL, SIM, FaultConfig()),
        ],
    )
    def test_every_input_field_invalidates(self, mutate):
        assert mutate() != label_key("sim", FP, WL, SIM)

    @pytest.mark.parametrize(
        "a,b",
        [
            (FaultConfig(fault_rate=1e-3), FaultConfig(fault_rate=2e-3)),
            (FaultConfig(episode_cycles=100), FaultConfig(episode_cycles=50)),
            (FaultConfig(per_pattern=True), FaultConfig(per_pattern=False)),
            (FaultConfig(seed=1), FaultConfig(seed=2)),
        ],
    )
    def test_fault_config_fields_invalidate(self, a, b):
        assert label_key("fault", FP, WL, SIM, a) != label_key(
            "fault", FP, WL, SIM, b
        )


class TestMemoryTier:
    def test_roundtrip_and_stats(self):
        cache = LabelCache()
        key = label_key("sim", FP, WL, SIM)
        assert cache.get(key) is None
        cache.put(key, {"x": np.arange(3.0)})
        hit = cache.get(key)
        assert hit is not None and (hit["x"] == np.arange(3.0)).all()
        st = cache.stats
        assert (st.memory_hits, st.disk_hits, st.misses, st.puts) == (1, 0, 1, 1)

    def test_lru_eviction(self):
        cache = LabelCache(memory_entries=2)
        for i in range(3):
            cache.put(f"{i:064d}", {"v": np.asarray(i)})
        assert cache.get(f"{0:064d}") is None, "oldest entry evicted"
        assert cache.get(f"{2:064d}") is not None
        assert cache.stats.evictions == 1

    def test_clear_memory(self):
        cache = LabelCache()
        cache.put("k" * 64, {"v": np.asarray(1)})
        cache.clear_memory()
        assert cache.get("k" * 64) is None


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        a = LabelCache(cache_dir=tmp_path)
        key = label_key("sim", FP, WL, SIM)
        a.put(key, {"lg": np.linspace(0, 1, 5), "n": np.asarray(5)})
        assert a.disk_entries() == 1

        b = LabelCache(cache_dir=tmp_path)
        hit = b.get(key)
        assert hit is not None
        assert (hit["lg"] == np.linspace(0, 1, 5)).all()
        assert b.stats.disk_hits == 1
        # Second read is served from memory.
        b.get(key)
        assert b.stats.memory_hits == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = LabelCache(cache_dir=tmp_path)
        for i in range(4):
            cache.put(f"{i:064x}", {"v": np.asarray(i)})
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_corrupt_entry_treated_as_miss(self, tmp_path, damage):
        cache = LabelCache(cache_dir=tmp_path)
        key = label_key("sim", FP, WL, SIM)
        value = {"v": np.arange(64.0)}
        cache.put(key, value)
        path = tmp_path / key[:2] / f"{key}.npz"
        path.write_bytes(CORRUPTIONS[damage](path.read_bytes()))
        fresh = LabelCache(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        fresh.put(key, value)  # atomically replaces the bad file
        reread = LabelCache(cache_dir=tmp_path).get(key)
        assert np.array_equal(reread["v"], value["v"])

    def test_memory_only_cache_reports_zero_disk(self):
        assert LabelCache().disk_entries() == 0


class TestImmutability:
    def test_cached_arrays_are_read_only(self):
        cache = LabelCache()
        key = label_key("sim", FP, WL, SIM)
        arr = np.arange(4.0)
        cache.put(key, {"x": arr})
        hit = cache.get(key)
        with pytest.raises(ValueError):
            hit["x"][0] = 99.0
        with pytest.raises(ValueError):
            arr[0] = 99.0  # put() freezes the caller's array too

    def test_disk_hits_are_read_only(self, tmp_path):
        a = LabelCache(cache_dir=tmp_path)
        key = label_key("sim", FP, WL, SIM)
        a.put(key, {"x": np.arange(4.0)})
        fresh = LabelCache(cache_dir=tmp_path)
        hit = fresh.get(key)
        with pytest.raises(ValueError):
            hit["x"] += 1.0

    def test_factory_sample_targets_cannot_corrupt_cache(self):
        from repro.circuit.benchmarks import family_subcircuits
        from repro.data import DataFactory, FactoryConfig

        circuits = family_subcircuits("iscas89", 1, seed=4)
        factory = DataFactory(FactoryConfig(workers=0))
        sample = factory.build(circuits, SIM, seed=0)[0]
        # target_lg aliases the cached array; in-place edits must raise.
        with pytest.raises(ValueError):
            sample.target_lg[0] = 0.5
        rebuilt = factory.build(circuits, SIM, seed=0)[0]
        assert np.array_equal(sample.target_lg, rebuilt.target_lg)

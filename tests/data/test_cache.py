"""Tests for the content-addressed label cache (repro.data.cache)."""

import json
import struct
import tempfile
import zlib

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.cache import LabelCache, decode_entry, encode_entry, label_key
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
        path = tmp_path / key[:2] / f"{key}.lbl"
        path.write_bytes(CORRUPTIONS[damage](path.read_bytes()))
        fresh = LabelCache(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        fresh.put(key, value)  # atomically replaces the bad file
        reread = LabelCache(cache_dir=tmp_path).get(key)
        assert np.array_equal(reread["v"], value["v"])

    def test_memory_only_cache_reports_zero_disk(self):
        assert LabelCache().disk_entries() == 0


#: Label-shaped values: numeric arrays of any rank from 0 to 3, empty ones
#: included, under distinct names in a drawn order.
ENTRY_VALUES = st.dictionaries(
    st.text(max_size=6),
    hnp.arrays(
        st.sampled_from([np.bool_, np.int64, np.float64, np.uint8, np.float32]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    max_size=5,
)


def _same_entry(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype
        and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _hand_built(manifest, payload: bytes, magic=b"RLBL", version=1) -> bytes:
    """An entry with a correct CRC around whatever manifest and payload."""
    raw = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    body = raw + payload
    return struct.pack("<4sIII", magic, version, zlib.crc32(body), len(raw)) + body


#: Entries whose CRC is right and whose content is not a label dict.
HOSTILE = {
    "object dtype": _hand_built([["v", "|O", [1]]], bytes(8)),
    "negative dimension": _hand_built([["v", "<f8", [-1]]], b""),
    "count past the payload": _hand_built([["v", "<f8", [3]]], bytes(16)),
    "trailing bytes": _hand_built([["v", "<f8", [1]]], bytes(9)),
    "structured dtype": _hand_built([["v", "<f8,<i8", [1]]], bytes(16)),
    "unknown dtype": _hand_built([["v", "zz", [1]]], bytes(8)),
    "float dimension": _hand_built([["v", "<f8", [1.0]]], bytes(8)),
    "duplicate name": _hand_built([["v", "<f8", []], ["v", "<f8", []]], bytes(16)),
    "manifest not a list": _hand_built({"v": "<f8"}, bytes(8)),
    "short field": _hand_built([["v", "<f8"]], bytes(8)),
    "bool byte 2": _hand_built([["v", "|b1", [1]]], b"\x02"),
    "deep nesting": _hand_built(b"[" * 100_000 + b"]" * 100_000, b""),
    "manifest not UTF-8": _hand_built(b"[\xff]", b""),
    "manifest past the file": (
        struct.pack("<4sIII", b"RLBL", 1, zlib.crc32(b"[]"), 3) + b"[]"
    ),
    "other format version": _hand_built([], b"", version=2),
    "other magic": _hand_built([], b"", magic=b"PK\x03\x04"),
}


class TestEntryFormat:
    @settings(max_examples=60, deadline=None)
    @given(value=ENTRY_VALUES)
    def test_roundtrip_through_the_disk_tier_is_exact_and_read_only(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            LabelCache(cache_dir=tmp).put("ab" * 32, value)
            hit = LabelCache(cache_dir=tmp).get("ab" * 32)
        assert hit is not None and _same_entry(hit, value)
        for arr in hit.values():
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous

    @pytest.mark.parametrize(
        "arr",
        [
            np.asarray(2.5),
            np.asarray(7, dtype=np.int64),
            np.zeros(0),
            np.zeros((3, 0), dtype=np.int64),
            np.array([True, False, True]),
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array([np.nan, -0.0, np.inf, 1e-310]),
        ],
        ids=["0d-f8", "0d-i8", "empty", "empty-2d", "bool", "i8-2d", "f8-edge"],
    )
    def test_roundtrip_kinds(self, arr):
        value = {"first": arr, "second": np.asarray(1.0)}
        assert _same_entry(decode_entry(encode_entry(value)), value)

    @settings(max_examples=40, deadline=None)
    @given(value=ENTRY_VALUES, mask=st.integers(1, 255))
    def test_every_byte_flip_and_truncation_is_rejected(self, value, mask):
        data = encode_entry(value)
        assert _same_entry(decode_entry(data), value)
        for i in range(len(data)):
            flipped = bytearray(data)
            flipped[i] ^= mask
            with pytest.raises(ValueError):
                decode_entry(bytes(flipped))
        for n in range(len(data)):
            with pytest.raises(ValueError):
                decode_entry(data[:n])

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_entry_with_a_valid_crc_is_a_miss(self, tmp_path, case):
        key = label_key("sim", FP, WL, SIM)
        path = tmp_path / key[:2] / f"{key}.lbl"
        path.parent.mkdir()
        path.write_bytes(HOSTILE[case])
        with pytest.raises(ValueError):
            decode_entry(HOSTILE[case])
        cache = LabelCache(cache_dir=tmp_path)
        assert cache.get(key) is None
        assert (cache.stats.misses, cache.stats.disk_hits) == (1, 0)

    def test_non_numeric_arrays_are_not_stored(self, tmp_path):
        cache = LabelCache(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="not numeric"):
            cache.put("cd" * 32, {"v": np.array(["a", "b"])})
        assert cache.disk_entries() == 0

    def test_old_npz_entries_are_neither_read_nor_deleted(self, tmp_path):
        key = label_key("sim", FP, WL, SIM)
        old = tmp_path / key[:2] / f"{key}.npz"
        old.parent.mkdir()
        with old.open("wb") as fh:
            np.savez(fh, v=np.arange(3.0))
        cache = LabelCache(cache_dir=tmp_path)
        assert cache.get(key) is None and cache.disk_entries() == 0
        cache.put(key, {"v": np.arange(3.0)})
        assert old.exists() and cache.disk_entries() == 1


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

"""Tests for dataset persistence (repro.data.shards)."""

import json

import numpy as np
import pytest

from repro.circuit.benchmarks import family_subcircuits
from repro.data import ShardError, ShardReader, load_manifest, write_shards
from repro.sim.logicsim import SimConfig
from repro.train.dataset import build_dataset

SIM = SimConfig(cycles=30, streams=64, seed=1)


@pytest.fixture(scope="module")
def dataset():
    # iscas89 sub-circuits are sequential (DFF loops), which exercises the
    # dangling-fanin reconstruction path.
    circuits = family_subcircuits("iscas89", 5, seed=4)
    return build_dataset(circuits, SIM, seed=0, keep_sim=False)


@pytest.fixture()
def written(dataset, tmp_path):
    write_shards(dataset, tmp_path, shard_size=2, name="unit", meta={"seed": 0})
    return tmp_path


class TestRoundTrip:
    def test_bitwise_equal_to_in_memory_build(self, dataset, written):
        reader = ShardReader(written)
        assert len(reader) == len(dataset)
        for a, b in zip(dataset, reader):
            assert a.name == b.name
            assert np.array_equal(a.target_tr, b.target_tr)
            assert np.array_equal(a.target_lg, b.target_lg)
            assert np.array_equal(a.workload.pi_probs, b.workload.pi_probs)
            assert a.workload.seed == b.workload.seed
            assert a.workload.name == b.workload.name

    def test_reconstructed_structure_identical(self, dataset, written):
        for a, b in zip(dataset, ShardReader(written)):
            assert (
                a.graph.netlist.fingerprint() == b.graph.netlist.fingerprint()
            ), "netlist structure must survive the round-trip"
            b.graph.netlist.validate()

    def test_random_access_and_slicing(self, dataset, written):
        reader = ShardReader(written)
        assert np.array_equal(reader[3].target_lg, dataset[3].target_lg)
        assert np.array_equal(reader[-1].target_lg, dataset[-1].target_lg)
        sliced = reader[1:3]
        assert [s.name for s in sliced] == [s.name for s in dataset[1:3]]

    def test_samples_are_lean(self, written):
        assert all(s.extras == {} for s in ShardReader(written))


class TestManifest:
    def test_contents(self, dataset, written):
        manifest = load_manifest(written)
        assert manifest["num_samples"] == len(dataset)
        assert manifest["kind"] == "sim"
        assert manifest["name"] == "unit"
        assert manifest["meta"] == {"seed": 0}
        assert sum(s["count"] for s in manifest["shards"]) == len(dataset)
        assert len(manifest["shards"]) == (len(dataset) + 1) // 2

    def test_unsupported_version_rejected(self, written):
        path = written / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            ShardReader(written)

    def test_bad_shard_size_rejected(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            write_shards(dataset, tmp_path, shard_size=0)


class TestStreaming:
    def test_reader_bounds_open_shards(self, dataset, written):
        reader = ShardReader(written, cached_shards=1)
        for s in reader:
            pass
        assert len(reader._handles) == 1, "only one shard file stays open"
        # Shuffled access never holds more than the configured handles.
        for i in (4, 0, 3, 1, 4, 2):
            reader[i]
            assert len(reader._handles) == 1
        reader.close()
        assert len(reader._handles) == 0
        # The reader reopens shards after close.
        assert reader[0].name == dataset[0].name

    def test_feeds_packed_minibatches(self, dataset, written):
        from tests.conftest import packed_minibatches

        reader = ShardReader(written)
        batches = packed_minibatches(reader, batch_size=2)
        assert sum(b.num_members for b in batches) == len(dataset)

    def test_trains_a_model(self, written):
        from repro.models.deepseq import DeepSeq
        from repro.models.base import ModelConfig
        from repro.train.trainer import TrainConfig, Trainer

        reader = ShardReader(written)
        model = DeepSeq(ModelConfig(hidden=8, iterations=2, seed=0))
        history = Trainer(TrainConfig(epochs=1, batch_size=2)).train(model, reader)
        assert len(history) == 1 and np.isfinite(history[0].loss)


class TestIndexing:
    def test_out_of_range_raises(self, written):
        reader = ShardReader(written)
        with pytest.raises(IndexError):
            reader[len(reader)]
        with pytest.raises(IndexError):
            reader[-len(reader) - 1]


class TestDamagedDataset:
    """Every way a dataset directory rots surfaces as one ``ShardError``
    that names the file — the matrix ``LabelCache`` has for its entries."""

    SHARD = "shard-00001.npz"  # samples 2 and 3

    def _damage_shard(self, written, edit):
        path = written / self.SHARD
        path.write_bytes(edit(path.read_bytes()))
        return ShardReader(written)

    def test_intact_shards_still_load(self, written):
        reader = self._damage_shard(written, lambda data: data[: len(data) // 2])
        assert reader[0].name and reader[4].name

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda data: data[: len(data) // 2], id="truncated"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: b"not a zip archive at all", id="garbage"),
        ],
    )
    def test_unreadable_shard(self, written, edit):
        reader = self._damage_shard(written, edit)
        with pytest.raises(ShardError, match=self.SHARD):
            reader[2]

    def test_bit_flip_in_a_member(self, written):
        def flip(data: bytes) -> bytes:
            at = data.index(b"s1_fanins.npy") + 200  # inside the stored array
            return data[:at] + bytes([data[at] ^ 0x10]) + data[at + 1 :]

        reader = self._damage_shard(written, flip)
        assert reader[2].name  # sample 0 of the shard is intact
        with pytest.raises(ShardError, match=rf"sample 1 of shard .*{self.SHARD}"):
            reader[3]

    def test_missing_shard(self, written):
        (written / self.SHARD).unlink()
        with pytest.raises(ShardError, match=self.SHARD):
            ShardReader(written)[3]

    def test_manifest_counts_past_the_members(self, written):
        path = written / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"][1]["count"] += 1
        path.write_text(json.dumps(manifest))
        reader = ShardReader(written)
        with pytest.raises(ShardError, match=rf"sample 2 of shard .*{self.SHARD}"):
            reader[4]

    @pytest.mark.parametrize("keep", [0, 0.5], ids=["empty", "truncated"])
    def test_truncated_manifest(self, written, keep):
        path = written / "manifest.json"
        text = path.read_text()
        path.write_text(text[: int(len(text) * keep)])
        with pytest.raises(ShardError, match="manifest.json"):
            ShardReader(written)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="manifest.json"):
            load_manifest(tmp_path)

"""Trainer determinism: schedules, accumulation, checkpoint-resume."""

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.nn.optim import Adam
from repro.nn.serialize import load_checkpoint, load_state, save_checkpoint, save_state
from repro.train.trainer import TrainConfig, Trainer

from tests.conftest import build_dataset_cached

CFG = ModelConfig(hidden=10, iterations=2, seed=0)


@pytest.fixture(scope="module")
def dataset():
    # Same build as tests/train/test_trainer.py — shared session-wide.
    return build_dataset_cached("iscas89", 4, 6, 40, 1)


def params_of(model):
    return [(name, p.data.copy()) for name, p in model.named_parameters()]


class TestCheckpointFile:
    def test_round_trip(self, tmp_path, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        opt = Adam(model.parameters(), lr=1e-3)
        Trainer(TrainConfig(epochs=1, lr=1e-3)).train(model, dataset, opt)
        rng = np.random.default_rng(42)
        rng.integers(0, 10, size=5)  # advance the stream
        path = tmp_path / "ck.npz"
        save_checkpoint(
            path, model, opt, epoch=3, rng=rng,
            extra={"history": np.arange(6.0)},
        )

        fresh = make_model("deepseq", CFG, "dual_attention")
        fresh_opt = Adam(fresh.parameters(), lr=1e-3)
        ckpt = load_checkpoint(path, fresh, fresh_opt)
        assert ckpt.epoch == 3
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)
        assert fresh_opt._t == opt._t
        for m1, m2 in zip(opt._m, fresh_opt._m):
            assert np.array_equal(m1, m2)
        # Restored RNG continues the exact stream.
        rng2 = np.random.default_rng(0)
        ckpt.restore_rng(rng2)
        assert np.array_equal(
            rng.integers(0, 1000, size=8), rng2.integers(0, 1000, size=8)
        )
        assert np.array_equal(ckpt.extra["history"], np.arange(6.0))

    def test_saves_to_exact_path_without_npz_suffix(self, tmp_path, dataset):
        # np.savez appends '.npz' to bare paths; the checkpoint writer must
        # honor the configured name exactly or resume never finds it.
        model = make_model("deepseq", CFG, "dual_attention")
        path = tmp_path / "deepseq.ckpt"
        save_checkpoint(path, model, epoch=0)
        assert path.exists()
        assert not (tmp_path / "deepseq.ckpt.npz").exists()
        assert not (tmp_path / "deepseq.ckpt.tmp").exists()
        assert load_checkpoint(path, make_model("deepseq", CFG)).epoch == 0

    def test_save_replaces_previous_checkpoint_atomically(
        self, tmp_path, dataset
    ):
        model = make_model("deepseq", CFG, "dual_attention")
        path = tmp_path / "ck.npz"
        save_checkpoint(path, model, epoch=1)
        save_checkpoint(path, model, epoch=2)
        assert load_checkpoint(path).epoch == 2
        assert list(tmp_path.iterdir()) == [path]  # no tmp residue

    def test_concurrent_writer_tmp_not_clobbered(self, tmp_path, dataset):
        # The temp file must come from mkstemp, not a fixed '<name>.tmp'
        # sibling: with a fixed name, two concurrent writers (data-parallel
        # trainers, table drivers sharing a checkpoint dir) interleave
        # bytes into the same temp file before the rename.  A pre-existing
        # '<name>.tmp' — another writer mid-save — must survive untouched.
        model = make_model("deepseq", CFG, "dual_attention")
        path = tmp_path / "shared.npz"
        other_writer = tmp_path / "shared.npz.tmp"
        other_writer.write_bytes(b"half-written by someone else")
        save_checkpoint(path, model, epoch=7)
        assert other_writer.read_bytes() == b"half-written by someone else"
        assert load_checkpoint(path).epoch == 7
        # ...and this writer's own temp file never lingers.
        assert sorted(tmp_path.iterdir()) == [path, other_writer]

    def test_optimizer_state_mismatch_rejected(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        opt = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(KeyError):
            opt.load_state_dict({})


class TestDamagedCheckpoint:
    """A damaged file raises one ``ValueError`` that names it, chained to
    whatever zipfile or the npy parser raised."""

    @pytest.fixture
    def saved(self, tmp_path):
        model = make_model("deepseq", CFG, "dual_attention")
        path = tmp_path / "ck.npz"
        save_checkpoint(
            path, model, Adam(model.parameters(), lr=1e-3), epoch=2,
            rng=np.random.default_rng(1), extra={"history": np.arange(3.0)},
        )
        return path

    def test_every_sampled_prefix_raises_naming_the_file(self, saved):
        raw = saved.read_bytes()
        bad = saved.with_name("truncated.npz")
        cuts = np.unique(np.r_[0, 1, 30, len(raw) - 1, np.linspace(2, len(raw) - 2, 60)])
        for n in cuts.astype(int).tolist():
            bad.write_bytes(raw[:n])
            with pytest.raises(ValueError, match="truncated.npz") as err:
                load_checkpoint(bad)
            assert err.value.__cause__ is not None, n

    def test_missing_array_and_bare_state_raise_the_same_way(self, saved, tmp_path):
        with np.load(saved) as data:
            arrays = {k: data[k] for k in data.files if k != "meta::epoch"}
        no_epoch = tmp_path / "no_epoch.npz"
        np.savez(no_epoch, **arrays)
        with pytest.raises(ValueError, match="no_epoch.npz") as err:
            load_checkpoint(no_epoch)
        assert isinstance(err.value.__cause__, KeyError)
        state = tmp_path / "state.npz"
        save_state({"w": np.arange(4.0)}, state)
        state.write_bytes(state.read_bytes()[:-9])
        with pytest.raises(ValueError, match="state.npz"):
            load_state(state)

    def test_missing_file_and_state_mismatch_keep_their_types(self, saved, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")
        with pytest.raises(KeyError):
            load_checkpoint(saved, make_model("deepseq", CFG, "conv_sum"))


class TestResumeDeterminism:
    @pytest.mark.parametrize(
        "schedule,grad_accum", [("constant", 1), ("cosine", 2)]
    )
    def test_resume_reproduces_uninterrupted_run(
        self, tmp_path, dataset, schedule, grad_accum
    ):
        """The ISSUE acceptance: interrupt mid-schedule, resume, and land
        on parameters bitwise identical to the uninterrupted run."""
        common = dict(
            epochs=6, lr=5e-3, batch_size=2, seed=3,
            schedule=schedule, grad_accum=grad_accum,
        )
        uninterrupted = make_model("deepseq", CFG, "dual_attention")
        full_hist = Trainer(TrainConfig(**common)).train(
            uninterrupted, dataset
        )

        path = str(tmp_path / "resume.npz")
        interrupted = make_model("deepseq", CFG, "dual_attention")
        part1 = Trainer(
            TrainConfig(**common, checkpoint_path=path, stop_after=2)
        ).train(interrupted, dataset)
        assert [h.epoch for h in part1] == [0, 1]
        part2 = Trainer(
            TrainConfig(**common, checkpoint_path=path, resume=True)
        ).train(interrupted, dataset)
        assert [h.epoch for h in part2] == [0, 1, 2, 3, 4, 5]

        for (n1, p1), (n2, p2) in zip(
            uninterrupted.named_parameters(), interrupted.named_parameters()
        ):
            assert np.array_equal(p1.data, p2.data), n1
        # The stitched history matches the uninterrupted one too.
        for a, b in zip(full_hist, part2):
            assert a.epoch == b.epoch
            assert a.loss == b.loss
            assert a.lr == b.lr

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(
                epochs=2, lr=1e-3,
                checkpoint_path=str(tmp_path / "none.npz"), resume=True,
            )
        ).train(model, dataset)
        assert [h.epoch for h in hist] == [0, 1]


class TestSchedules:
    def test_cosine_anneals_lr(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(epochs=4, lr=1e-2, schedule="cosine", lr_min=1e-4)
        ).train(model, dataset)
        lrs = [h.lr for h in hist]
        assert lrs[0] == pytest.approx(1e-2)
        assert lrs[-1] == pytest.approx(1e-4)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_step_schedule_decays(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(
                epochs=4, lr=1e-2, schedule="step",
                lr_step_size=2, lr_gamma=0.1,
            )
        ).train(model, dataset)
        assert [h.lr for h in hist] == pytest.approx(
            [1e-2, 1e-2, 1e-3, 1e-3]
        )

    def test_unknown_schedule_rejected(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        with pytest.raises(ValueError):
            Trainer(TrainConfig(epochs=1, schedule="warmup")).train(
                model, dataset
            )


class TestEarlyStopping:
    def test_stops_on_stagnant_loss(self, dataset):
        # lr=0 cannot improve anything: patience expires immediately.
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(epochs=10, lr=0.0, early_stop_patience=2)
        ).train(model, dataset)
        assert len(hist) == 3  # first epoch sets best, two bad epochs stop

    def test_early_stopped_run_does_not_resume_training(
        self, tmp_path, dataset
    ):
        """Re-invoking a run that already early-stopped must be a no-op:
        the stop is persisted, so parameters stay bitwise frozen."""
        path = str(tmp_path / "stopped.npz")
        cfg = TrainConfig(
            epochs=10, lr=0.0, early_stop_patience=2, checkpoint_path=path,
        )
        model = make_model("deepseq", CFG, "dual_attention")
        first = Trainer(cfg).train(model, dataset)
        assert len(first) == 3
        frozen = params_of(model)
        again = Trainer(
            TrainConfig(
                epochs=10, lr=1e-2, early_stop_patience=2,
                checkpoint_path=path, resume=True,
            )
        ).train(model, dataset)
        assert [h.epoch for h in again] == [h.epoch for h in first]
        for (name, before), (_, p) in zip(frozen, model.named_parameters()):
            assert np.array_equal(before, p.data), name

    def test_monitors_validation_error_when_given(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(epochs=3, lr=5e-3, early_stop_patience=5)
        ).train(model, dataset[:3], val_dataset=dataset[3:])
        assert all(h.val_pe is not None for h in hist)

    def test_grad_accum_trains(self, dataset):
        model = make_model("deepseq", CFG, "dual_attention")
        hist = Trainer(
            TrainConfig(epochs=8, lr=5e-3, batch_size=1, grad_accum=4)
        ).train(model, dataset)
        assert hist[-1].loss < hist[0].loss

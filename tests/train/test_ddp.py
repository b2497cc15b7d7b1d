"""Deterministic data-parallel training (repro.runtime.ddp + trainer).

The ISSUE acceptance: W-worker DDP runs reproduce the sequential
trainer's final parameters bitwise at W ∈ {1, 2, 4}, and an interrupted
W-worker run resumed from its checkpoint matches the uninterrupted run
bitwise — including resuming on a *different* worker count.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.nn.serialize import load_checkpoint
from repro.runtime.ddp import (
    DdpError,
    DdpGradExecutor,
    reduce_gradients,
    tree_reduce,
)
from repro.train.trainer import TrainConfig, Trainer

from tests.conftest import build_dataset_cached
from tests.runtime.test_workers import live_children, shm_entries

CFG = ModelConfig(hidden=10, iterations=2, seed=0)


@pytest.fixture(scope="module")
def dataset():
    # Same build as tests/train/test_trainer.py — shared session-wide.
    return build_dataset_cached("iscas89", 4, 6, 40, 1)


def fresh_model():
    return make_model("deepseq", CFG, "dual_attention")


def state_of(model):
    return {k: v.copy() for k, v in model.state_dict().items()}


def assert_states_equal(a, b, context=""):
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), f"{context}: mismatch at {k}"


class TestTreeReduce:
    def test_association_is_pinned_by_position(self):
        rng = np.random.default_rng(0)
        a, b, c, d, e = (rng.standard_normal(7) for _ in range(5))
        # The tree sums adjacent pairs per round, odd tail carried.
        assert np.array_equal(tree_reduce([a, b, c]), (a + b) + c)
        assert np.array_equal(tree_reduce([a, b, c, d]), (a + b) + (c + d))
        assert np.array_equal(
            tree_reduce([a, b, c, d, e]), ((a + b) + (c + d)) + e
        )

    def test_differs_from_left_fold_on_adversarial_floats(self):
        # Sanity that the tests below are meaningful: tree and left-fold
        # orders genuinely disagree in float64, so bitwise equality across
        # worker counts can only come from the pinned tree.
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8) for _ in range(7)]
        fold = xs[0]
        for x in xs[1:]:
            fold = fold + x
        assert not np.array_equal(tree_reduce(xs), fold)

    def test_single_element_returned_as_is(self):
        a = np.ones(3)
        assert tree_reduce([a]) is a

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([])

    def test_reduce_gradients_handles_absent_entries(self):
        g = np.full(4, 2.0)
        per_batch = [[g, None], [g, g], [None, g]]
        reduced = reduce_gradients(per_batch)
        assert np.array_equal(reduced[0], g + g)
        assert np.array_equal(reduced[1], g + g)
        all_absent = reduce_gradients([[None], [None]])
        assert all_absent == [None]

    def test_reduce_gradients_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_gradients([])


class TestDdpDifferential:
    @staticmethod
    def run(dataset, workers, **overrides):
        cfg = dict(
            epochs=2, lr=5e-3, batch_size=1, grad_accum=4,
            seed=3, train_workers=workers,
        )
        cfg.update(overrides)
        model = fresh_model()
        hist = Trainer(TrainConfig(**cfg)).train(model, dataset)
        return state_of(model), hist

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_ddp_reproduces_sequential_bitwise(self, dataset, workers):
        sequential, seq_hist = self.run(dataset, 0)
        sharded, ddp_hist = self.run(dataset, workers)
        assert_states_equal(sequential, sharded, f"W={workers}")
        # Epoch stats accumulate in batch-position order on both paths,
        # so even the reported loss floats are identical.
        assert [(h.loss, h.loss_tr, h.loss_lg) for h in seq_hist] == [
            (h.loss, h.loss_tr, h.loss_lg) for h in ddp_hist
        ]

    def test_more_workers_than_group_is_consistent(self, dataset):
        # Idle ranks (W > grad_accum) must not perturb the reduction.
        sequential, _ = self.run(dataset, 0, grad_accum=2)
        sharded, _ = self.run(dataset, 3, grad_accum=2)
        assert_states_equal(sequential, sharded, "W=3,accum=2")


class TestDdpResume:
    def test_interrupted_ddp_resume_matches_uninterrupted(
        self, tmp_path, dataset
    ):
        common = dict(
            epochs=4, lr=5e-3, batch_size=1, grad_accum=4,
            seed=3, train_workers=2,
        )
        uninterrupted = fresh_model()
        Trainer(TrainConfig(**common)).train(uninterrupted, dataset)

        path = str(tmp_path / "ddp.npz")
        interrupted = fresh_model()
        part1 = Trainer(
            TrainConfig(**common, checkpoint_path=path, stop_after=2)
        ).train(interrupted, dataset)
        assert [h.epoch for h in part1] == [0, 1]
        part2 = Trainer(
            TrainConfig(**common, checkpoint_path=path, resume=True)
        ).train(interrupted, dataset)
        assert [h.epoch for h in part2] == [0, 1, 2, 3]
        assert_states_equal(
            state_of(uninterrupted), state_of(interrupted), "resume W=2"
        )

    def test_resume_on_different_worker_count_stays_bitwise(
        self, tmp_path, dataset
    ):
        # The update is worker-count-independent, so a checkpoint written
        # under W=2 must resume bitwise-identically under W=0 (and vice
        # versa) — the shard RNG streams are re-derived, not restored.
        common = dict(epochs=4, lr=5e-3, batch_size=1, grad_accum=4, seed=3)
        uninterrupted = fresh_model()
        Trainer(TrainConfig(**common, train_workers=0)).train(
            uninterrupted, dataset
        )

        path = str(tmp_path / "switch.npz")
        switched = fresh_model()
        Trainer(
            TrainConfig(
                **common, train_workers=2, checkpoint_path=path, stop_after=2
            )
        ).train(switched, dataset)
        Trainer(
            TrainConfig(
                **common, train_workers=0, checkpoint_path=path, resume=True
            )
        ).train(switched, dataset)
        assert_states_equal(
            state_of(uninterrupted), state_of(switched), "W=2 → W=0 resume"
        )


class TestOlderCheckpoint:
    def test_checkpoint_with_shard_streams_still_resumes(
        self, tmp_path, dataset
    ):
        # Checkpoints written while the trainer still saved per-shard RNG
        # streams hold a ``meta::shard_rng`` entry; loading skips it and
        # the resumed run stays bitwise on the uninterrupted trajectory.
        common = dict(epochs=4, lr=5e-3, batch_size=1, grad_accum=4, seed=3)
        uninterrupted = fresh_model()
        Trainer(TrainConfig(**common)).train(uninterrupted, dataset)

        path = tmp_path / "older.npz"
        resumed = fresh_model()
        Trainer(
            TrainConfig(**common, checkpoint_path=str(path), stop_after=2)
        ).train(resumed, dataset)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        streams = [np.random.default_rng(s).bit_generator.state for s in (7, 8)]
        payload["meta::shard_rng"] = np.asarray(json.dumps(streams))
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        assert load_checkpoint(path).epoch == 1
        Trainer(
            TrainConfig(**common, checkpoint_path=str(path), resume=True)
        ).train(resumed, dataset)
        assert_states_equal(
            state_of(uninterrupted), state_of(resumed), "older checkpoint"
        )


class TestExecutorLifecycle:
    def test_closed_executor_rejects_work_and_close_is_idempotent(
        self, dataset
    ):
        model = fresh_model()
        ex = DdpGradExecutor(
            model, [[dataset[0]], [dataset[1]]], workers=1, grad_accum=2
        )
        try:
            results = ex.run_group([(0, 0.5), (1, 0.5)])
            assert len(results) == 2
        finally:
            ex.close()
        ex.close()  # idempotent
        with pytest.raises(DdpError):
            ex.run_group([(0, 1.0)])

    def test_dead_worker_raises_typed_error(self, dataset):
        model = fresh_model()
        ex = DdpGradExecutor(model, [[dataset[0]]], workers=1)
        try:
            ex._procs[0].kill()
            ex._procs[0].join(timeout=10.0)
            with pytest.raises(DdpError):
                ex.run_group([(0, 1.0)])
        finally:
            ex.close()

    def test_worker_count_validated(self, dataset):
        with pytest.raises(ValueError):
            DdpGradExecutor(fresh_model(), [[dataset[0]]], workers=0)
        with pytest.raises(ValueError):
            Trainer(TrainConfig(train_workers=-1)).train(
                fresh_model(), dataset
            )


class TestCoordinatorRank:
    """The coordinator is rank W: position ``p`` of a group goes to rank
    ``p % (W + 1)``, and rank W trains in-process while the workers train
    their share."""

    @staticmethod
    def count_train_steps(monkeypatch, before=None):
        """Wrap the coordinator's ``train_step`` (workers import their own
        copy); ``before(calls)`` runs ahead of each wrapped call."""
        import repro.runtime.trainstep as trainstep

        real = trainstep.train_step
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            if before is not None:
                before(len(calls))
            return real(*args, **kwargs)

        monkeypatch.setattr(trainstep, "train_step", counted)
        return calls

    def test_coordinator_computes_one_of_two(self, dataset, monkeypatch):
        calls = self.count_train_steps(monkeypatch)
        ex = DdpGradExecutor(
            fresh_model(), [[dataset[0]], [dataset[1]]], workers=1, grad_accum=2
        )
        try:
            results = ex.run_group([(0, 0.5), (1, 0.5)])
        finally:
            ex.close()
        assert len(calls) == 1
        assert len(results) == 2
        assert all(r.grads for r in results)

    @pytest.mark.parametrize(
        "workers, grad_accum", [(1, 1), (1, 2), (1, 3), (2, 3)]
    )
    def test_every_layout_matches_sequential_bitwise(
        self, dataset, workers, grad_accum
    ):
        # (1,1): the worker alone; (1,2)/(2,3): workers then coordinator;
        # (1,3): the positions wrap back to the worker after rank W.
        sequential, seq_hist = TestDdpDifferential.run(
            dataset, 0, grad_accum=grad_accum
        )
        sharded, ddp_hist = TestDdpDifferential.run(
            dataset, workers, grad_accum=grad_accum
        )
        assert_states_equal(sequential, sharded, f"W={workers},accum={grad_accum}")
        assert [(h.loss, h.loss_tr, h.loss_lg) for h in seq_hist] == [
            (h.loss, h.loss_tr, h.loss_lg) for h in ddp_hist
        ]

    def test_coordinator_failure_stops_the_pool(self, dataset, monkeypatch):
        def boom(_):
            raise RuntimeError("coordinator share failed")

        self.count_train_steps(monkeypatch, before=boom)
        before = shm_entries()
        ex = DdpGradExecutor(
            fresh_model(), [[dataset[0]], [dataset[1]]], workers=1, grad_accum=2
        )
        try:
            # Position 0 is in flight on the worker when position 1 raises.
            with pytest.raises(DdpError, match="coordinator") as err:
                ex.run_group([(0, 0.5), (1, 0.5)])
            assert isinstance(err.value.__cause__, RuntimeError)
            with pytest.raises(DdpError, match="executor is closed"):
                ex.run_group([(0, 1.0)])
            assert not live_children("train-ddp-worker")
            assert shm_entries() == before
        finally:
            ex.close()

    def test_worker_killed_during_coordinator_share(self, dataset, monkeypatch):
        def kill_worker(_):
            for proc in live_children("train-ddp-worker"):
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10.0)

        self.count_train_steps(monkeypatch, before=kill_worker)
        before = shm_entries()
        model = fresh_model()
        initial = state_of(model)
        cfg = TrainConfig(
            epochs=1, lr=5e-3, batch_size=1, grad_accum=2, seed=3,
            train_workers=1,
        )
        with pytest.raises(DdpError, match="died"):
            Trainer(cfg).train(model, dataset)
        # The failed group is the run's first: no update was applied.
        assert_states_equal(initial, state_of(model), "after worker death")
        assert not live_children("train-ddp-worker")
        assert shm_entries() == before

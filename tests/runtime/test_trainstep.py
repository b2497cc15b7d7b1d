"""Packed training minibatches: pack_samples / minibatch_membership / train_step."""

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.nn.optim import Adam
from repro.runtime.pack import clear_pack_cache
from repro.runtime.plan import clear_plan_cache
from repro.runtime.trainstep import pack_samples, train_step

from tests.conftest import build_sample, packed_minibatches

CFG = ModelConfig(hidden=8, iterations=2, seed=0)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_pack_cache()
    yield
    clear_plan_cache()
    clear_pack_cache()


def make_sample(seed: int, n_gates: int = 25):
    return build_sample(seed, n_gates)


@pytest.fixture(scope="module")
def samples():
    return [make_sample(seed) for seed in range(5)]


class TestPackSamples:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pack_samples([])

    def test_single_sample_passthrough(self, samples):
        batch = pack_samples(samples[:1])
        assert batch.num_members == 1
        assert batch.num_nodes == samples[0].num_nodes
        assert batch.workload is samples[0].workload
        assert batch.target_tr is samples[0].target_tr

    def test_targets_concatenate_in_member_order(self, samples):
        batch = pack_samples(samples[:3])
        assert batch.num_members == 3
        assert batch.num_nodes == sum(s.num_nodes for s in samples[:3])
        for k, sample in enumerate(samples[:3]):
            sl = batch.member_slice(k)
            assert np.array_equal(batch.target_tr[sl], sample.target_tr)
            assert np.array_equal(batch.target_lg[sl], sample.target_lg)
        assert batch.workload.num_pis == sum(
            s.workload.num_pis for s in samples[:3]
        )
        assert batch.names == ("s0", "s1", "s2")

    def test_same_composition_reuses_cached_plan(self, samples):
        first = pack_samples(samples[:3])
        again = pack_samples(samples[:3])
        assert first.plan is again.plan


class TestMakeMinibatches:
    def test_partition_covers_dataset(self, samples):
        batches = packed_minibatches(samples, 2, np.random.default_rng(0))
        assert sum(b.num_members for b in batches) == len(samples)
        assert sum(b.num_nodes for b in batches) == sum(
            s.num_nodes for s in samples
        )
        assert max(b.num_members for b in batches) <= 2
        names = sorted(n for b in batches for n in b.names)
        assert names == sorted(s.name for s in samples)

    def test_rng_shuffles_membership(self, samples):
        a = packed_minibatches(samples, 2, np.random.default_rng(1))
        b = packed_minibatches(samples, 2, None)
        assert [x.names for x in b] == [("s0", "s1"), ("s2", "s3"), ("s4",)]
        assert [x.names for x in a] != [x.names for x in b]


class TestTrainStep:
    def test_gradients_accumulate_until_cleared(self, samples):
        model = make_model("deepseq", CFG, "dual_attention")
        batch = pack_samples(samples[:2])
        model.zero_grad()
        train_step(model, batch)
        once = [p.grad.copy() for p in model.parameters()]
        train_step(model, batch)  # no zero_grad in between
        for p, g in zip(model.parameters(), once):
            np.testing.assert_allclose(p.grad, 2.0 * g, rtol=1e-12)

    def test_loss_scale_scales_gradients_not_losses(self, samples):
        model = make_model("deepseq", CFG, "dual_attention")
        batch = pack_samples(samples[:2])
        model.zero_grad()
        full = train_step(model, batch)
        grads = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        halved = train_step(model, batch, loss_scale=0.5)
        assert halved.loss == full.loss
        for p, g in zip(model.parameters(), grads):
            np.testing.assert_allclose(p.grad, 0.5 * g, rtol=1e-12)

    def test_accumulated_group_matches_mean_gradient(self, samples):
        """G accumulated steps at 1/G == the mean of the solo gradients."""
        model = make_model("deepseq", CFG, "dual_attention")
        b1 = pack_samples(samples[:2])
        b2 = pack_samples(samples[2:4])
        solo = []
        for batch in (b1, b2):
            model.zero_grad()
            train_step(model, batch)
            solo.append([p.grad.copy() for p in model.parameters()])
        model.zero_grad()
        train_step(model, b1, loss_scale=0.5)
        train_step(model, b2, loss_scale=0.5)
        for i, p in enumerate(model.parameters()):
            np.testing.assert_allclose(
                p.grad, 0.5 * (solo[0][i] + solo[1][i]), rtol=1e-10, atol=1e-15
            )

    def test_weights_shape_objective(self, samples):
        model = make_model("deepseq", CFG, "dual_attention")
        batch = pack_samples(samples[:2])
        result = train_step(model, batch, tr_weight=2.0, lg_weight=0.5)
        assert result.loss == pytest.approx(
            2.0 * result.loss_tr + 0.5 * result.loss_lg, rel=1e-12
        )

    def test_step_trains(self, samples):
        model = make_model("deepseq", CFG, "dual_attention")
        opt = Adam(model.parameters(), lr=5e-3)
        batch = pack_samples(samples[:3])
        losses = []
        for _ in range(12):
            opt.zero_grad()
            losses.append(train_step(model, batch).loss)
            opt.step()
        assert losses[-1] < losses[0]

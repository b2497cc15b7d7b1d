"""Tests for the tape's composite ops (tests.nn.tape)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.nn.gradcheck import gradcheck
from tests.nn.tape import (
    Tensor,
    clip01,
    l1_loss,
    mse_loss,
    segment_mean,
    segment_softmax,
    softmax,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 5)))
        out = softmax(x, axis=1).numpy()
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out > 0).all()

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = softmax(Tensor(x)).numpy()
        b = softmax(Tensor(x + 100.0)).numpy()
        assert np.allclose(a, b)

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0]))).numpy()
        assert np.allclose(out, [0.5, 0.5])

    def test_gradcheck(self):
        gradcheck(lambda a: (softmax(a, axis=1) ** 2).sum(), [(3, 4)])


class TestSegmentSoftmax:
    def test_segments_sum_to_one(self):
        seg = np.array([0, 0, 0, 1, 1, 2])
        scores = Tensor(np.random.default_rng(1).standard_normal(6))
        w = segment_softmax(scores, seg, 3).numpy()
        assert np.isclose(w[:3].sum(), 1.0)
        assert np.isclose(w[3:5].sum(), 1.0)
        assert np.isclose(w[5], 1.0)

    def test_column_shape_preserved(self):
        seg = np.array([0, 0, 1])
        scores = Tensor(np.zeros((3, 1)))
        w = segment_softmax(scores, seg, 2)
        assert w.shape == (3, 1)

    def test_uniform_scores_give_uniform_weights(self):
        seg = np.array([0, 0, 0, 0])
        w = segment_softmax(Tensor(np.zeros(4)), seg, 1).numpy()
        assert np.allclose(w, 0.25)

    def test_extreme_scores_stable(self):
        seg = np.array([0, 0])
        w = segment_softmax(Tensor(np.array([1e4, 1e4])), seg, 1).numpy()
        assert np.allclose(w, 0.5)

    def test_gradcheck(self):
        seg = np.array([0, 0, 1, 1, 1])
        gradcheck(
            lambda s: (segment_softmax(s, seg, 2) ** 2).sum(), [(5,)]
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(0, 1000))
    def test_property_partition_of_unity(self, num_segments, seed):
        rng = np.random.default_rng(seed)
        seg = np.sort(rng.integers(0, num_segments, size=12))
        scores = Tensor(rng.standard_normal(12))
        w = segment_softmax(scores, seg, num_segments).numpy()
        for s in range(num_segments):
            mask = seg == s
            if mask.any():
                assert w[mask].sum() == pytest.approx(1.0)


class TestSegmentMean:
    def test_mean_per_segment(self):
        seg = np.array([0, 0, 1])
        vals = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = segment_mean(vals, seg, 2).numpy()
        assert out[0, 0] == pytest.approx(3.0)
        assert out[1, 0] == pytest.approx(10.0)

    def test_empty_segment_zero(self):
        seg = np.array([0])
        out = segment_mean(Tensor(np.ones((1, 2))), seg, 3).numpy()
        assert (out[1] == 0).all()
        assert (out[2] == 0).all()


class TestLosses:
    def test_l1_known_value(self):
        pred = Tensor(np.array([[1.0, 2.0]]))
        target = np.array([[0.0, 4.0]])
        assert l1_loss(pred, target).item() == pytest.approx(1.5)

    def test_l1_gradcheck(self):
        target = np.random.default_rng(3).standard_normal((3, 2))
        gradcheck(lambda p: l1_loss(p, target), [(3, 2)], tol=1e-4)

    def test_mse_known_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        assert mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(5.0)

    def test_mse_gradcheck(self):
        target = np.zeros((2, 2))
        gradcheck(lambda p: mse_loss(p, target), [(2, 2)])

    def test_losses_accept_tensor_targets(self):
        pred = Tensor(np.ones(3))
        assert l1_loss(pred, Tensor(np.ones(3))).item() == 0.0


class TestClip:
    def test_clip01(self):
        out = clip01(np.array([-0.5, 0.5, 1.5]))
        assert out.tolist() == [0.0, 0.5, 1.0]

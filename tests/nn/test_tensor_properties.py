"""Hypothesis-driven properties of the autograd engine.

Randomized shapes/values catch broadcasting and accumulation corners the
fixed-shape gradchecks miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.nn.gradcheck import gradcheck
from tests.nn.tape import Tensor, l1_loss, softmax

dims = st.integers(min_value=1, max_value=5)


class TestAlgebraicIdentities:
    @settings(max_examples=25, deadline=None)
    @given(rows=dims, cols=dims, seed=st.integers(0, 10_000))
    def test_linearity_of_backward(self, rows, cols, seed):
        """grad of (a*x).sum() is a everywhere, independent of x."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
        a = float(rng.standard_normal())
        (x * a).sum().backward()
        assert np.allclose(x.grad, a)

    @settings(max_examples=25, deadline=None)
    @given(rows=dims, cols=dims, seed=st.integers(0, 10_000))
    def test_sum_then_mean_consistency(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((rows, cols))
        t = Tensor(data)
        assert t.mean().item() == pytest.approx(t.sum().item() / (rows * cols))

    @settings(max_examples=20, deadline=None)
    @given(n=dims, seed=st.integers(0, 10_000))
    def test_sigmoid_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        a = Tensor(x).sigmoid().numpy()
        b = Tensor(-x).sigmoid().numpy()
        assert np.allclose(a + b, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(rows=dims, inner=dims, cols=dims, seed=st.integers(0, 10_000))
    def test_matmul_matches_numpy(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        out = (Tensor(a) @ Tensor(b)).numpy()
        assert np.allclose(out, a @ b)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_concat_then_narrow_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 4))
        cat = Tensor.concat([Tensor(a), Tensor(b)], axis=1)
        assert np.allclose(cat.narrow(1, 0, 2).numpy(), a)
        assert np.allclose(cat.narrow(1, 2, 4).numpy(), b)


class TestGradientProperties:
    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(2, 4), cols=st.integers(1, 3),
           seed=st.integers(0, 1000))
    def test_random_shape_gradcheck_mul_sigmoid(self, rows, cols, seed):
        gradcheck(
            lambda a, b: (a * b.sigmoid()).sum(),
            [(rows, cols), (rows, cols)],
            seed=seed,
        )

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    def test_random_gather_gradcheck(self, n, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=n + 2)
        gradcheck(
            lambda a: (a.gather_rows(idx) ** 2).sum(), [(n, 2)], seed=seed
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_l1_subgradient_bounded(self, seed):
        rng = np.random.default_rng(seed)
        pred = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        target = rng.standard_normal((4, 3))
        l1_loss(pred, target).backward()
        # |d l1/d pred| = 1/N per element.
        assert np.abs(pred.grad).max() <= 1.0 / 12 + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(rows=st.integers(1, 4), seed=st.integers(0, 1000))
    def test_softmax_grad_rows_sum_zero(self, rows, seed):
        """d softmax / d logits has zero row-sum when upstream grad is
        uniform within a row (shift invariance)."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((rows, 5)), requires_grad=True)
        (softmax(x, axis=1) * Tensor(rng.standard_normal((rows, 1)))).sum().backward()
        assert np.allclose(x.grad.sum(axis=1), 0.0, atol=1e-10)


class TestNumericalEdges:
    def test_large_sigmoid_saturation_grad(self):
        x = Tensor(np.array([60.0, -60.0]), requires_grad=True)
        x.sigmoid().sum().backward()
        assert np.all(np.abs(x.grad) < 1e-20)

    def test_division_by_small_values(self):
        x = Tensor(np.array([1e-12]), requires_grad=True)
        (1.0 / x).sum().backward()
        assert np.isfinite(x.grad).all()

    def test_exp_overflow_propagates_inf_not_crash(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = Tensor(np.array([1000.0])).exp()
        assert np.isinf(out.numpy()).all()

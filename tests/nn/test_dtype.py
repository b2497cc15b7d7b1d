"""dtype threading through the tensor engine (float32 fast path)."""

import numpy as np
import pytest

from repro.nn.layers import Linear

from tests.nn.tape import (
    Tensor,
    default_dtype,
    get_default_dtype,
    segment_mean,
    segment_softmax,
    set_default_dtype,
)


class TestDefaults:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64
        assert Tensor(np.arange(3)).dtype == np.float64

    def test_float32_arrays_keep_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32

    def test_explicit_dtype_overrides(self):
        assert Tensor([1.0], dtype=np.float32).dtype == np.float32
        assert Tensor(np.ones(2, dtype=np.float32), dtype=np.float64).dtype == np.float64

    def test_context_manager_scopes_default(self):
        with default_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            Tensor([1.0], dtype=np.int32)

    def test_astype_detaches(self):
        t = Tensor(np.ones(3), requires_grad=True)
        cast = t.astype(np.float32)
        assert cast.dtype == np.float32
        assert not cast.requires_grad


class TestDtypePreservation:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.a = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        self.b = Tensor(rng.standard_normal((4, 3)).astype(np.float32))

    def test_arithmetic(self):
        for out in [
            self.a + self.b,
            self.a - self.b,
            self.a * self.b,
            self.a / (self.b + 10.0),
            -self.a,
            self.a**2.0,
        ]:
            assert out.dtype == np.float32

    def test_python_scalars_do_not_promote(self):
        assert (self.a * 0.5).dtype == np.float32
        assert (1.0 - self.a).dtype == np.float32
        assert (self.a + 3).dtype == np.float32

    def test_activations(self):
        for out in [self.a.relu(), self.a.sigmoid(), self.a.tanh(), self.a.exp(), self.a.abs()]:
            assert out.dtype == np.float32

    def test_matmul_and_shape_ops(self):
        w = Tensor(np.ones((3, 2), dtype=np.float32))
        assert (self.a @ w).dtype == np.float32
        assert self.a.T.dtype == np.float32
        assert self.a.sum(axis=0).dtype == np.float32
        assert self.a.mean(axis=1).dtype == np.float32
        assert Tensor.concat([self.a, self.b], axis=1).dtype == np.float32

    def test_gather_scatter_segment(self):
        idx = np.array([0, 2, 2, 1])
        seg = np.array([0, 0, 1, 1])
        assert self.a.gather_rows(idx).dtype == np.float32
        assert self.a.segment_sum(seg, 2).dtype == np.float32
        rows = Tensor(np.zeros((2, 3), dtype=np.float32))
        assert self.a.row_update(np.array([0, 1]), rows).dtype == np.float32

    def test_segment_functional(self):
        scores = Tensor(np.random.default_rng(1).standard_normal(6).astype(np.float32))
        seg = np.array([0, 0, 1, 1, 1, 2])
        assert segment_softmax(scores, seg, 3).dtype == np.float32
        assert segment_mean(self.a, np.array([0, 0, 1, 1]), 2).dtype == np.float32

    def test_backward_in_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        assert x.grad.dtype == np.float32


class TestLinearUnderShadowDtype:
    def test_float32_inputs_with_float32_weights(self):
        layer = Linear(3, 2, seed=0)
        for p in layer.parameters():
            p.data = p.data.astype(np.float32)
        out = layer(np.ones((5, 3), dtype=np.float32))
        assert out.dtype == np.float32


class TestMatmulRowDeterminism:
    """Row i of a product may not depend on the batch height — the packed
    runtime relies on this for bitwise float64 equivalence."""

    def test_single_row_matches_stacked(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.standard_normal((16, 16)))
        big = rng.standard_normal((64, 16))
        full = (Tensor(big) @ w).data
        one = (Tensor(big[:1]) @ w).data
        np.testing.assert_array_equal(one, full[:1])

    def test_narrow_output_matches_stacked(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((16, 1)))
        big = rng.standard_normal((64, 16))
        full = (Tensor(big) @ w).data
        for m in (1, 2, 3, 7, 33):
            np.testing.assert_array_equal((Tensor(big[:m]) @ w).data, full[:m])

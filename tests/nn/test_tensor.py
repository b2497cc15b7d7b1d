"""Tests for the autograd tape (tests.nn.tape), the oracle of the kernels.

Every primitive op is gradient-checked against central finite differences;
broadcasting, graph traversal and accumulation semantics get dedicated
cases.
"""

import numpy as np
import pytest

from tests.nn.gradcheck import gradcheck
from tests.nn.tape import Tensor, is_grad_enabled, no_grad


class TestBasicOps:
    def test_add(self):
        gradcheck(lambda a, b: (a + b).sum(), [(3, 4), (3, 4)])

    def test_add_broadcast_row(self):
        gradcheck(lambda a, b: (a + b).sum(), [(3, 4), (4,)])

    def test_add_broadcast_keepdim(self):
        gradcheck(lambda a, b: (a + b).sum(), [(3, 4), (3, 1)])

    def test_add_scalar_constant(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (t + 5.0).sum()
        out.backward()
        assert (t.grad == 1.0).all()

    def test_radd(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (1.0 + t).sum().backward()
        assert (t.grad == 1.0).all()

    def test_sub(self):
        gradcheck(lambda a, b: (a - b).sum(), [(2, 3), (2, 3)])

    def test_rsub(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (2.0 - t).sum().backward()
        assert (t.grad == -1.0).all()

    def test_neg(self):
        gradcheck(lambda a: (-a).sum(), [(4,)])

    def test_mul(self):
        gradcheck(lambda a, b: (a * b).sum(), [(3, 2), (3, 2)])

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: (a * b).sum(), [(3, 2), (2,)])

    def test_div(self):
        gradcheck(lambda a, b: (a / b).sum(), [(3,), (3,)], positive=True)

    def test_rdiv(self):
        gradcheck(lambda a: (1.0 / a).sum(), [(3,)], positive=True)

    def test_pow(self):
        gradcheck(lambda a: (a**3).sum(), [(4,)])


class TestNonlinearities:
    def test_exp(self):
        gradcheck(lambda a: a.exp().sum(), [(3, 3)])

    def test_log(self):
        gradcheck(lambda a: a.log().sum(), [(5,)], positive=True)

    def test_relu(self):
        # Avoid kinks at 0 by shifting inputs away from it.
        gradcheck(lambda a: (a + 0.7).relu().sum(), [(4, 2)], positive=True)

    def test_relu_zero_region(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        assert t.grad.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_bits_at_the_edges(self, dtype):
        """relu is ``where(x > 0, x, +0.0)`` bit for bit: NaN and -0.0 map
        to +0.0, infinities and denormals pass through by sign."""
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array(
            [np.nan, -0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -1.5], dtype=dtype
        )
        got = Tensor(x).relu().numpy()
        want = np.where(x > 0, x, dtype(0.0))
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_sigmoid(self):
        gradcheck(lambda a: a.sigmoid().sum(), [(3, 2)])

    def test_tanh(self):
        gradcheck(lambda a: a.tanh().sum(), [(3, 2)])

    def test_abs(self):
        gradcheck(lambda a: a.abs().sum(), [(4,)], positive=True)

    def test_sigmoid_range(self):
        x = Tensor(np.array([-100.0, 0.0, 100.0]))
        y = x.sigmoid().numpy()
        assert y[0] == pytest.approx(0.0, abs=1e-30)
        assert y[1] == pytest.approx(0.5)
        assert y[2] == pytest.approx(1.0)


class TestLinalgShape:
    def test_matmul(self):
        gradcheck(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)])

    def test_matmul_chain(self):
        gradcheck(lambda a, b, c: ((a @ b) @ c).sum(), [(2, 3), (3, 3), (3, 2)])

    def test_transpose(self):
        gradcheck(lambda a: (a.T @ a).sum(), [(3, 2)])

    def test_reshape(self):
        gradcheck(lambda a: (a.reshape(6) * a.reshape(6)).sum(), [(2, 3)])

    def test_sum_axis(self):
        gradcheck(lambda a: (a.sum(axis=0) ** 2).sum(), [(3, 4)])

    def test_sum_keepdims(self):
        gradcheck(lambda a: (a / a.sum(axis=1, keepdims=True)).sum(), [(3, 4)], positive=True)

    def test_mean(self):
        gradcheck(lambda a: a.mean(), [(5, 2)])
        gradcheck(lambda a: (a.mean(axis=1) ** 2).sum(), [(3, 4)])

    def test_narrow(self):
        gradcheck(lambda a: (a.narrow(1, 1, 2) ** 2).sum(), [(3, 4)])

    def test_narrow_axis0(self):
        gradcheck(lambda a: a.narrow(0, 0, 2).sum(), [(4, 3)])

    def test_concat(self):
        gradcheck(
            lambda a, b: (Tensor.concat([a, b], axis=1) ** 2).sum(),
            [(2, 3), (2, 2)],
        )

    def test_concat_axis0(self):
        gradcheck(
            lambda a, b: (Tensor.concat([a, b], axis=0) ** 2).sum(),
            [(2, 3), (1, 3)],
        )


class TestGatherScatter:
    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: (a.gather_rows(idx) ** 2).sum(), [(3, 4)])

    def test_segment_sum(self):
        seg = np.array([0, 0, 1, 2, 2])
        gradcheck(lambda a: (a.segment_sum(seg, 3) ** 2).sum(), [(5, 2)])

    def test_segment_sum_empty_segment(self):
        seg = np.array([0, 0, 2])
        out = Tensor(np.ones((3, 2))).segment_sum(seg, 4)
        assert out.shape == (4, 2)
        assert (out.numpy()[1] == 0).all()
        assert (out.numpy()[3] == 0).all()

    def test_row_update(self):
        idx = np.array([1, 3])
        gradcheck(
            lambda a, r: (a.row_update(idx, r) ** 2).sum(), [(4, 3), (2, 3)]
        )

    def test_row_update_duplicate_index_rejected(self):
        base = Tensor(np.zeros((4, 2)), requires_grad=True)
        rows = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="row 2 more than once"):
            base.row_update(np.array([0, 2, 2]), rows)

    def test_row_update_grad_partition(self):
        base = Tensor(np.ones((4, 2)), requires_grad=True)
        rows = Tensor(np.ones((2, 2)), requires_grad=True)
        out = base.row_update(np.array([0, 2]), rows)
        out.sum().backward()
        assert base.grad[0].tolist() == [0.0, 0.0]
        assert base.grad[1].tolist() == [1.0, 1.0]
        assert (rows.grad == 1.0).all()


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = t * t  # d/dt = 2t
        out.backward()
        assert t.grad[0] == pytest.approx(4.0)

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t * 5.0
        (a + b).backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_backward_twice_accumulates_into_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).backward()
        (t * 2.0).backward()
        assert t.grad[0] == pytest.approx(4.0)

    def test_second_backward_through_freed_graph_raises(self):
        """backward() consumes the graph: going through it again fails
        loudly instead of accumulating into an intermediate as a leaf."""
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = t * 3.0
        mid.sum().backward()
        assert t.grad.tolist() == [3.0, 3.0]
        with pytest.raises(RuntimeError, match="already differentiated"):
            mid.sum().backward()
        with pytest.raises(RuntimeError, match="already differentiated"):
            mid.backward(np.ones(2))
        assert mid.grad is None
        assert t.grad.tolist() == [3.0, 3.0]

    def test_backward_releases_every_node(self):
        t = Tensor(np.ones(3), requires_grad=True)
        a = t * 2.0
        b = a.exp()
        loss = (a + b).sum()
        loss.backward()
        for node in (a, b, loss):
            assert node._parents == ()
        assert t._backward is None  # leaves stay leaves

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 3.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 1.0).backward()

    def test_backward_without_grad_flag(self):
        t = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (t.detach() * 3.0).sum()
        assert not out.requires_grad

    def test_no_grad_context(self):
        t = Tensor(np.ones(2), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2.0
            assert not out.requires_grad
        assert is_grad_enabled()

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.ones(1), requires_grad=True)
        out = t
        for _ in range(5000):
            out = out + 1.0
        out.sum().backward()
        assert t.grad[0] == 1.0

    def test_numpy_view_and_item(self):
        t = Tensor(np.array([1.5]))
        assert t.item() == 1.5
        assert t.numpy().shape == (1,)
        assert t.shape == (1,)
        assert t.ndim == 1
        assert t.size == 1

    def test_float64_coercion(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

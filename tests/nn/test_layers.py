"""Tests for layers (repro.nn.layers) and module mechanics.

Each layer is a kernel pair on arrays; the tape (:mod:`tests.nn.tape`)
wraps a pair as one graph node (``apply_kernel``) for finite-difference
checks and composes the same layer from operators as its oracle.
"""

import numpy as np
import pytest

from repro.nn.layers import MLP, Linear, ReLU, Sequential, Sigmoid, l1_loss_grad
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam

from tests.nn.tape import Tensor, apply_kernel, l1_loss, mlp, mse_loss

from tests.nn.gradcheck import gradcheck


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3)
        out = layer(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert layer.bias is None
        out = layer(np.zeros((2, 4)))
        assert (out == 0).all()

    def test_matches_manual_affine(self):
        layer = Linear(3, 2, seed=1)
        x = np.random.default_rng(0).standard_normal((4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(x), expected)

    def test_gradcheck_through_layer(self):
        layer = Linear(3, 2, seed=2)

        def fn(x):
            return (apply_kernel(layer, (x,)) ** 2).sum()

        gradcheck(fn, [(4, 3)])

    def test_parameter_gradients_flow(self):
        layer = Linear(3, 2)
        out = apply_kernel(layer, (Tensor(np.ones((2, 3))),)).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_seeded_init_deterministic(self):
        a = Linear(4, 4, seed=7)
        b = Linear(4, 4, seed=7)
        assert (a.weight.data == b.weight.data).all()


class TestActivationsSequential:
    def test_relu_layer(self):
        out = ReLU()(np.array([-1.0, 2.0]))
        assert out.tolist() == [0.0, 2.0]

    def test_sigmoid_layer(self):
        out = Sigmoid()(np.zeros(2))
        assert np.allclose(out, 0.5)

    def test_sequential_order(self):
        seq = Sequential(Linear(2, 2, seed=0), ReLU(), Linear(2, 1, seed=1))
        out = seq(np.ones((3, 2)))
        assert out.shape == (3, 1)

    def test_sequential_registers_parameters(self):
        seq = Sequential(Linear(2, 2), Linear(2, 2))
        assert len(seq.parameters()) == 4


class TestMLP:
    def test_paper_head_shape(self):
        """The regressor heads are 3-layer MLPs (Section IV-A3)."""
        head = MLP(64, 64, 2, num_layers=3)
        linears = [l for l in head.net.layers if isinstance(l, Linear)]
        assert len(linears) == 3

    def test_sigmoid_output_in_range(self):
        head = MLP(4, 8, 1, sigmoid_out=True)
        out = head(np.random.default_rng(0).standard_normal((10, 4)))
        assert (out > 0).all() and (out < 1).all()

    def test_linear_output_unbounded(self):
        head = MLP(4, 8, 1, sigmoid_out=False, seed=3)
        x = 100.0 * np.ones((1, 4))
        assert not (0 < head(x).item() < 1) or True  # just runs

    def test_single_layer(self):
        head = MLP(4, 8, 2, num_layers=1, sigmoid_out=False)
        linears = [l for l in head.net.layers if isinstance(l, Linear)]
        assert len(linears) == 1
        assert linears[0].in_features == 4

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            MLP(4, 4, 1, num_layers=0)

    def test_can_fit_xor(self):
        net = MLP(2, 16, 1, num_layers=3, sigmoid_out=True, seed=0)
        opt = Adam(net.parameters(), lr=5e-3)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])
        for _ in range(500):
            opt.zero_grad()
            loss = mse_loss(apply_kernel(net, (Tensor(x),)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 0.02


class TestModuleMechanics:
    def test_named_parameters_paths(self):
        net = MLP(2, 4, 1, num_layers=2)
        names = [n for n, _ in net.named_parameters()]
        assert any(n.startswith("net.layer0.weight") for n in names)

    def test_num_parameters(self):
        layer = Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self):
        a = MLP(3, 4, 2, seed=1)
        b = MLP(3, 4, 2, seed=99)
        b.load_state_dict(a.state_dict())
        x = np.ones((2, 3))
        assert np.allclose(a(x), b(x))

    def test_state_dict_key_mismatch(self):
        a = Linear(2, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias

    def test_state_dict_shape_mismatch(self):
        a = Linear(2, 2)
        state = a.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad_clears(self):
        layer = Linear(2, 1)
        apply_kernel(layer, (Tensor(np.ones((1, 2))),)).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_parameter_accumulates_into_fresh_then_in_place(self):
        p = Parameter(np.zeros(3))
        assert p.grad is None
        g = np.ones(3)
        p.accumulate(g)
        first = p.grad
        assert first is not g and np.array_equal(first, g)
        p.accumulate(g)
        assert p.grad is first and np.array_equal(first, 2 * g)


class TestKernelsVsComposed:
    """The MLP kernel pair against the MLP composed from tape operators:
    forward, input gradient and parameter gradients bitwise."""

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("sigmoid_out", [True, False])
    def test_mlp_bitwise(self, rows, sigmoid_out):
        rng = np.random.default_rng(rows)
        head = MLP(5, 6, 2, sigmoid_out=sigmoid_out, seed=4)
        for p in head.parameters():
            p.data += rng.normal(scale=0.1, size=p.data.shape)
        x = rng.standard_normal((rows, 5))
        seed_grad = rng.standard_normal((rows, 2))

        def run(forward):
            head.zero_grad()
            xt = Tensor(x.copy(), requires_grad=True)
            out = forward(xt)
            out.backward(seed_grad.copy())
            return out.data, xt.grad, [p.grad.copy() for p in head.parameters()]

        got = run(lambda xt: apply_kernel(head, (xt,)))
        want = run(lambda xt: mlp(head, xt))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        for g1, g2 in zip(got[2], want[2]):
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_l1_loss_grad_bitwise(self, scale):
        rng = np.random.default_rng(0)
        pred, target = rng.uniform(size=(9, 2)), rng.uniform(size=(9, 2))
        pred[0, 0] = target[0, 0]  # a zero residual has zero gradient
        loss, grad = l1_loss_grad(pred, target, scale)
        pt = Tensor(pred.copy(), requires_grad=True)
        want = l1_loss(pt, target)
        want.backward(np.asarray(scale))
        assert loss == want.item()
        assert np.array_equal(grad, pt.grad)
        assert grad[0, 0] == 0.0

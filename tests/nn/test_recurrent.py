"""Tests for the GRU cell (repro.nn.recurrent)."""

import numpy as np
import pytest

from repro.nn.recurrent import GRUCell
from tests.nn.gradcheck import gradcheck
from tests.nn.tape import Tensor, apply_kernel


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(5, 3)
        out = cell(np.ones((4, 5)), np.zeros((4, 3)))
        assert out.shape == (4, 3)

    def test_output_bounded_by_tanh_dynamics(self):
        """h' is a convex mix of tanh(..) in [-1,1] and h — with |h|<=1 the
        state stays in [-1, 1] forever."""
        cell = GRUCell(4, 3, seed=1)
        rng = np.random.default_rng(0)
        h = np.zeros((2, 3))
        for _ in range(50):
            x = rng.standard_normal((2, 4)) * 5
            h = cell(x, h)
        assert (np.abs(h) <= 1.0).all()

    def test_zero_update_gate_keeps_state_structure(self):
        # With all-zero weights, z = sigmoid(0) = 0.5, n = 0: h' = 0.5 h.
        cell = GRUCell(2, 2)
        for p in cell.parameters():
            p.data[...] = 0.0
        h0 = np.array([[0.5, -0.5]])
        out = cell(np.zeros((1, 2)), h0)
        assert np.allclose(out, 0.5 * h0)

    def test_gradcheck_inputs_and_state(self):
        cell = GRUCell(3, 2, seed=2)

        def fn(x, h):
            return (apply_kernel(cell, (x, h)) ** 2).sum()

        gradcheck(fn, [(2, 3), (2, 2)], tol=1e-4)

    def test_parameter_gradients(self):
        cell = GRUCell(3, 2, seed=3)
        out = apply_kernel(
            cell, (Tensor(np.ones((2, 3))), Tensor(np.full((2, 2), 0.1)))
        ).sum()
        out.backward()
        for name, p in cell.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_deterministic_seeding(self):
        a = GRUCell(3, 2, seed=5)
        b = GRUCell(3, 2, seed=5)
        assert (a.w_ih.data == b.w_ih.data).all()
        assert (a.w_hh.data == b.w_hh.data).all()

    def test_recurrent_weights_orthogonal_blocks(self):
        cell = GRUCell(3, 4, seed=0)
        for k in range(3):
            block = cell.w_hh.data[k * 4 : (k + 1) * 4]
            assert np.allclose(block @ block.T, np.eye(4), atol=1e-8)

    def test_state_dependence(self):
        cell = GRUCell(2, 2, seed=7)
        x = np.ones((1, 2))
        out_a = cell(x, np.zeros((1, 2)))
        out_b = cell(x, np.ones((1, 2)))
        assert not np.allclose(out_a, out_b)

"""Tests for optimizers (repro.nn.optim) and serialization."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import (
    SGD,
    Adam,
    ConstantLR,
    CosineLR,
    StepLR,
    make_schedule,
)
from repro.nn.serialize import load_module, load_state, save_module, save_state

from tests.nn.tape import param


def quadratic_loss(p: Parameter):
    # f(p) = ||p - 3||^2, minimum at 3.
    diff = param(p) - 3.0
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(1))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return abs(p.data[0] - 3.0)

        assert run(0.9) < run(0.0)

    def test_skips_gradless_params(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.5)
        opt.step()  # no grad yet: no crash, no change
        assert (p.data == 1.0).all()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step(self):
        # First Adam step moves by ~lr regardless of gradient magnitude.
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        (param(p) * 1000.0).sum().backward()
        opt.step()
        assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.05, weight_decay=1.0)
        for _ in range(100):
            opt.zero_grad()
            (param(p) * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 5.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_zero_grad_helper(self):
        p = Parameter(np.ones(1))
        opt = Adam([p])
        (param(p) * 1.0).sum().backward()
        opt.zero_grad()
        assert p.grad is None


class TestOptimizerStateDict:
    def _train_steps(self, opt, p, k):
        for _ in range(k):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()

    def test_adam_round_trip_resumes_identically(self):
        p1 = Parameter(np.full(3, 10.0))
        opt1 = Adam([p1], lr=0.1)
        self._train_steps(opt1, p1, 5)
        state = opt1.state_dict()
        snapshot = p1.data.copy()

        p2 = Parameter(snapshot.copy())
        opt2 = Adam([p2], lr=0.1)
        opt2.load_state_dict(state)
        self._train_steps(opt1, p1, 5)
        self._train_steps(opt2, p2, 5)
        assert np.array_equal(p1.data, p2.data)

    def test_sgd_velocity_round_trip(self):
        p1 = Parameter(np.zeros(2))
        opt1 = SGD([p1], lr=0.05, momentum=0.9)
        self._train_steps(opt1, p1, 4)
        p2 = Parameter(p1.data.copy())
        opt2 = SGD([p2], lr=0.05, momentum=0.9)
        opt2.load_state_dict(opt1.state_dict())
        self._train_steps(opt1, p1, 4)
        self._train_steps(opt2, p2, 4)
        assert np.array_equal(p1.data, p2.data)

    def test_shape_mismatch_rejected(self):
        opt = Adam([Parameter(np.zeros(3))], lr=0.1)
        bad = {"t": np.asarray(1), "m0": np.zeros(4), "v0": np.zeros(3)}
        with pytest.raises(ValueError):
            opt.load_state_dict(bad)

    def test_dtype_mismatch_rejected(self):
        # ``slot[...] = value`` silently upcasts float32 checkpoint
        # moments into float64 slots; the loader must refuse instead.
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=1e-3)
        state = opt.state_dict()
        state["m0"] = state["m0"].astype(np.float32)
        with pytest.raises(ValueError, match="dtype"):
            opt.load_state_dict(state)

    def test_missing_keys_rejected(self):
        opt = SGD([Parameter(np.zeros(3))], momentum=0.9)
        with pytest.raises(KeyError):
            opt.load_state_dict({})


class TestApplyGradients:
    def test_matches_manual_grad_install(self):
        g = np.array([1.0, -2.0, 0.5])
        manual = Parameter(np.ones(3))
        opt_a = Adam([manual], lr=1e-2)
        manual.grad = g.copy()
        opt_a.step()

        applied = Parameter(np.ones(3))
        opt_b = Adam([applied], lr=1e-2)
        opt_b.apply_gradients([g.copy()])
        assert np.array_equal(manual.data, applied.data)

    def test_installs_as_is_without_accumulation(self):
        # The DDP reduction already holds the full group sum; any further
        # arithmetic here would break the bitwise guarantee.
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=1.0)
        p.grad = np.array([100.0, 100.0])  # stale — must be discarded
        opt.apply_gradients([np.array([1.0, 2.0])])
        assert np.array_equal(p.data, np.array([0.0, -1.0]))

    def test_none_leaves_parameter_untouched(self):
        p, q = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = SGD([p, q], lr=1.0)
        opt.apply_gradients([None, np.ones(2)])
        assert np.array_equal(p.data, np.ones(2))
        assert np.array_equal(q.data, np.zeros(2))

    def test_length_mismatch_rejected(self):
        opt = SGD([Parameter(np.ones(2))], lr=1.0)
        with pytest.raises(ValueError, match="1 parameters"):
            opt.apply_gradients([np.ones(2), np.ones(2)])

    def test_shape_mismatch_rejected(self):
        opt = SGD([Parameter(np.ones(2))], lr=1.0)
        with pytest.raises(ValueError, match="shape"):
            opt.apply_gradients([np.ones(3)])


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(1e-3).lr_at(0) == 1e-3
        assert ConstantLR(1e-3).lr_at(49) == 1e-3

    def test_cosine_endpoints_and_monotone(self):
        sched = CosineLR(1.0, total_epochs=11, min_lr=0.1)
        lrs = [sched.lr_at(e) for e in range(11)]
        assert lrs[0] == pytest.approx(1.0)
        assert lrs[-1] == pytest.approx(0.1)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert lrs[5] == pytest.approx(0.55)  # midpoint of the annealing

    def test_cosine_clamps_out_of_range_epochs(self):
        sched = CosineLR(1.0, total_epochs=5)
        assert sched.lr_at(100) == pytest.approx(sched.lr_at(4))
        assert sched.lr_at(-3) == pytest.approx(1.0)

    def test_step_decay(self):
        sched = StepLR(1.0, step_size=3, gamma=0.5)
        assert [sched.lr_at(e) for e in range(7)] == pytest.approx(
            [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25]
        )

    def test_factory(self):
        assert isinstance(make_schedule("constant", 1e-4, 50), ConstantLR)
        assert isinstance(make_schedule("cosine", 1e-4, 50), CosineLR)
        assert isinstance(make_schedule("step", 1e-4, 50), StepLR)
        with pytest.raises(ValueError):
            make_schedule("warmup", 1e-4, 50)


class TestSerialize:
    def test_state_roundtrip(self, tmp_path):
        state = {"a.b.weight": np.arange(6.0).reshape(2, 3), "c": np.zeros(2)}
        path = tmp_path / "state.npz"
        save_state(state, path)
        loaded = load_state(path)
        assert set(loaded) == set(state)
        for k in state:
            assert (loaded[k] == state[k]).all()

    def test_module_roundtrip(self, tmp_path):
        a = Linear(3, 2, seed=1)
        path = tmp_path / "lin.npz"
        save_module(a, path)
        b = Linear(3, 2, seed=9)
        load_module(b, path)
        x = np.ones((1, 3))
        assert np.allclose(a(x), b(x))

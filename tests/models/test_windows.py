"""The sweep's windows of levels (``repro.models.base.propagate``).

Each pass runs as windows of consecutive levels; a window's prologue
computes the pass-start terms of all of its rows in one call per kernel
(the GRU's hidden gates, the attention's previous-state scores), and every
level slices them.  That is bitwise only if those kernels give a row the
same bits whatever the number of rows, and if the result does not depend
on where the windows are cut.  Both are checked here: the first at the
heights a window reaches, the second by sweeping with every level its own
window, with a few levels per window and with one window per pass.
"""

import numpy as np
import pytest

import repro.models.base as base
from repro.models.base import ModelConfig, window_rows
from repro.models.registry import MODEL_NAMES, make_model
from repro.nn.recurrent import GRUCell
from repro.nn.tensor import rowstable_matmul
from repro.runtime.plan import plan_for
from repro.runtime.predictor import predict_one
from repro.runtime.trainstep import pack_samples, train_step

from tests.conftest import build_pair, build_sample, perturb_parameters

DTYPES = [np.float64, np.float32]


def window_cap(hidden: int, dtype) -> int:
    """The default window height of a DeepSeq pass at ``hidden``."""
    return window_rows(GRUCell(2 * hidden + 4, hidden), dtype)


class TestRowsAtWindowHeights:
    """Row i of a prologue kernel is bitwise equal at every height from
    one row to a full window."""

    HEIGHTS = (1, 2, 17, 64)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hidden", [32, 64])
    @pytest.mark.parametrize("k_of", [lambda h: h, lambda h: 2 * h + 4])
    def test_rowstable_matmul(self, hidden, k_of, dtype):
        rng = np.random.default_rng(hidden)
        k = k_of(hidden)
        w_t = np.ascontiguousarray(rng.standard_normal((3 * hidden, k)).T.astype(dtype))
        rows = rng.standard_normal((window_cap(hidden, dtype), k)).astype(dtype)
        full = rowstable_matmul(rows, w_t)
        assert full.dtype == dtype
        for m in self.HEIGHTS + (len(rows),):
            part = rowstable_matmul(rows[:m], w_t)
            assert np.array_equal(part, full[:m]), m
            assert np.array_equal(rowstable_matmul(rows[m - 1 : m], w_t), full[m - 1 : m])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hidden", [32, 64])
    def test_narrow_einsum(self, hidden, dtype):
        rng = np.random.default_rng(hidden + 1)
        w = rng.standard_normal((1, hidden)).astype(dtype)
        rows = rng.standard_normal((window_cap(hidden, dtype), hidden)).astype(dtype)
        full = np.einsum("ij,jc->ic", rows, w.T)
        for m in self.HEIGHTS + (len(rows),):
            assert np.array_equal(np.einsum("ij,jc->ic", rows[:m], w.T), full[:m]), m
            assert np.array_equal(
                np.einsum("ij,jc->ic", rows[m - 1 : m], w.T), full[m - 1 : m]
            )


CFG = ModelConfig(hidden=10, iterations=2, seed=0)

#: ``_WINDOW_BYTES`` values: one row (every level its own window), a few
#: levels per window, and one window per pass.
CAPS = {"one_row": 1, "few_levels": 4096, "unbounded": 1 << 40}


@pytest.fixture()
def graph_and_workload():
    return build_pair(0, 5, 4, 60)


class TestWindowCuts:
    def test_windows_cover_the_schedule_in_order(self, graph_and_workload):
        graph, _ = graph_and_workload
        plan = plan_for(graph, cache=False)
        for custom in (True, False):
            schedule = plan.schedule(custom)
            for max_rows in (1, 7, 10**9):
                for batches, windows in zip(schedule, plan.windows(custom, max_rows)):
                    levels = [level for w in windows for level in w.levels]
                    assert len(levels) == len(batches)
                    assert all(lv[0] is b for lv, b in zip(levels, batches))
                    for window in windows:
                        assert len(window.nodes) <= max_rows or len(window.levels) == 1
                        assert window.levels[0][5] == 0
                        assert window.levels[-1][6] == len(window.nodes)
                        for _, nodes, _, _, _, lo, hi in window.levels:
                            assert np.array_equal(window.nodes[lo:hi], nodes)
                if max_rows == 1:
                    assert all(len(w.levels) == 1 for w in plan.windows(custom, 1)[0])
                if max_rows == 10**9:
                    assert all(len(w) <= 1 for w in plan.windows(custom, max_rows))

    def test_windows_are_memoized_per_height(self, graph_and_workload):
        plan = plan_for(graph_and_workload[0], cache=False)
        assert plan.windows(True, 7) is plan.windows(True, 7)
        assert plan.windows(True, 7) is not plan.windows(True, 8)


class TestWindowInvariance:
    """Where the windows are cut moves no bit of a prediction or a
    gradient."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name,agg", MODEL_NAMES)
    def test_predictions(self, monkeypatch, graph_and_workload, name, agg, dtype):
        graph, wl = graph_and_workload
        model = perturb_parameters(make_model(name, CFG, agg))
        want = predict_one(model, graph, wl, dtype=dtype)
        for cap in CAPS.values():
            monkeypatch.setattr(base, "_WINDOW_BYTES", cap)
            got = predict_one(model, graph, wl, dtype=dtype)
            assert np.array_equal(got.tr, want.tr) and np.array_equal(got.lg, want.lg)

    @pytest.mark.parametrize("name,agg", MODEL_NAMES)
    def test_train_step_gradients(self, monkeypatch, name, agg):
        batch = pack_samples([build_sample(seed, 30) for seed in range(3)])
        model = perturb_parameters(make_model(name, CFG, agg))

        def grads():
            model.zero_grad()
            train_step(model, batch)
            return [None if p.grad is None else p.grad.copy() for p in model.parameters()]

        want = grads()
        for cap in CAPS.values():
            monkeypatch.setattr(base, "_WINDOW_BYTES", cap)
            for g, w in zip(grads(), want):
                assert (g is None and w is None) or np.array_equal(g, w)

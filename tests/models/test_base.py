"""Tests for the shared DAG-GNN machinery (repro.models.base)."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.models.base import ModelConfig, _h0_base, baseline_batches
from repro.models.deepseq import DeepSeq
from repro.models.baselines import DagRecGnn
from repro.runtime.predictor import predict_one
from repro.sim.workload import random_workload

from tests.conftest import build_pair, perturb_parameters


CFG = ModelConfig(hidden=12, iterations=2, seed=0)


@pytest.fixture()
def setup():
    return build_pair(seed=3, n_pis=5, n_dffs=4, n_gates=30, workload_seed=1)


class TestInitialHidden:
    def test_pi_rows_broadcast_workload(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        h0 = model.initial_hidden(graph, wl)
        for k, pi in enumerate(graph.pi_ids):
            assert np.allclose(h0[pi], wl.pi_probs[k])

    def test_workload_size_mismatch_rejected(self, setup):
        graph, _ = setup
        from repro.sim.workload import Workload

        model = DeepSeq(CFG)
        with pytest.raises(ValueError):
            model.initial_hidden(graph, Workload(np.array([0.5])))

    def test_non_pi_rows_random(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        h0 = model.initial_hidden(graph, wl)
        gate_rows = h0[graph.and_ids]
        assert gate_rows.std() > 0.01


    def test_into_buffer_matches_and_casts(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        h0 = model.initial_hidden(graph, wl)
        assert h0.dtype == np.float64
        out = np.empty(h0.shape, dtype=np.float32)
        model.initial_hidden_into(graph, wl, out)
        assert np.array_equal(out, h0.astype(np.float32))

    def test_base_cache_survives_concurrent_eviction(self):
        """Serving workers share the base cache with nothing else
        serializing them; more sizes than the cache holds forces constant
        eviction under the hammer."""
        sizes = list(range(3, 42))
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(sizes).tolist()
            try:
                for _ in range(60):
                    for n in order:
                        if _h0_base(n, 8).shape != (n, 8):
                            raise AssertionError(f"wrong base for {n}")
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,), daemon=True)
                for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        fresh = np.random.default_rng(0xD5EC + 17).uniform(-1.0, 1.0, size=(17, 8))
        assert np.array_equal(_h0_base(17, 8), fresh / np.sqrt(8))


class TestPredictEntryPoint:
    def test_mixed_dtypes_run_concurrently_bitwise(self, setup):
        """Four threads interleave float64 ``predict``, float32
        ``predict_one`` and ``readout`` on one model with no lock: every
        result equals its sequential reference bitwise, at its own dtype.
        A call that rebound the shared parameters would break one."""
        graph, wl = setup
        model = perturb_parameters(DeepSeq(CFG))
        calls = [
            ("f64", lambda: model.predict(graph, wl)),
            ("f32", lambda: predict_one(model, graph, wl, dtype="float32")),
            ("readout", lambda: model.readout(graph, wl, mode="meanmax")),
        ]

        def arrays(result) -> tuple:
            if isinstance(result, np.ndarray):
                return (result,)
            return (result.tr, result.lg)

        reference = {name: arrays(call()) for name, call in calls}
        assert [a.dtype for a in reference["f64"]] == [np.float64] * 2
        assert [a.dtype for a in reference["f32"]] == [np.float32] * 2
        assert reference["readout"][0].dtype == np.float64
        errors: list[str] = []

        def hammer(k: int) -> None:
            try:
                for i in range(15):
                    name, call = calls[(k + i) % len(calls)]
                    for got, want in zip(arrays(call()), reference[name]):
                        if got.dtype != want.dtype or not np.array_equal(got, want):
                            errors.append(f"thread {k} call {i}: {name} differs")
            except Exception as exc:  # reported by the assert below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,), daemon=True)
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]

    def test_derived_caches_stay_out_of_the_pickle(self, setup):
        """The structure pickle shipped to workers must not grow once the
        model has served: no cached transposes, no float32 replica."""
        graph, wl = setup
        model = perturb_parameters(DeepSeq(CFG))
        size = len(pickle.dumps(model))
        p32 = model.predict(graph, wl, dtype=np.float32)
        assert len(pickle.dumps(model)) == size
        p64 = model.predict(graph, wl)
        assert len(pickle.dumps(model)) == size
        replica = pickle.loads(pickle.dumps(model))
        r64 = replica.predict(graph, wl)
        r32 = replica.predict(graph, wl, dtype=np.float32)
        assert np.array_equal(r64.tr, p64.tr) and np.array_equal(r64.lg, p64.lg)
        assert np.array_equal(r32.tr, p32.tr) and np.array_equal(r32.lg, p32.lg)


class TestPropagation:
    def test_pi_rows_never_change(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        h = model.embed(graph, wl)
        for k, pi in enumerate(graph.pi_ids):
            assert np.allclose(h[pi], wl.pi_probs[k]), (
                "PI embeddings must stay fixed at workload probabilities"
            )

    def test_dff_copy_step_applied(self, setup):
        """After DeepSeq's step 4 the DFF rows equal their data
        predecessors' rows."""
        graph, wl = setup
        model = DeepSeq(CFG)
        h = model.embed(graph, wl)
        for d, s in zip(graph.dff_ids, graph.dff_src):
            assert np.allclose(h[d], h[s])

    def test_baseline_keeps_dffs_distinct(self, setup):
        graph, wl = setup
        model = DagRecGnn(CFG)
        h = model.embed(graph, wl)
        diffs = [
            np.abs(h[d] - h[s]).max()
            for d, s in zip(graph.dff_ids, graph.dff_src)
        ]
        assert max(diffs) > 1e-6, "baseline has no clock-edge copy step"

    def test_inference_matches_training_forward(self, setup):
        """Inference (no context log) must agree with the training forward
        (which logs its contexts) bit for bit."""
        graph, wl = setup
        model = DeepSeq(CFG)
        pred = model.predict(graph, wl)
        pred_tr, pred_lg = model.forward(graph, wl, log=[])
        assert np.allclose(pred.tr, pred_tr, atol=1e-12)
        assert np.allclose(pred.lg, pred_lg[:, 0], atol=1e-12)

    def test_deterministic_predictions(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        a = model.predict(graph, wl)
        b = model.predict(graph, wl)
        assert (a.tr == b.tr).all()
        assert (a.lg == b.lg).all()

    def test_predictions_in_unit_interval(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        pred = model.predict(graph, wl)
        assert (pred.tr >= 0).all() and (pred.tr <= 1).all()
        assert (pred.lg >= 0).all() and (pred.lg <= 1).all()
        assert pred.toggle_rate.shape == (graph.num_nodes,)

    def test_workload_changes_predictions(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        a = model.predict(graph, wl)
        wl2 = random_workload(graph.netlist, seed=77)
        b = model.predict(graph, wl2)
        assert not np.allclose(a.lg, b.lg), (
            "workload conditioning must influence predictions"
        )


class TestBaselineBatches:
    def test_forward_includes_dff_updates(self, setup):
        graph, _ = setup
        fwd, _rev = baseline_batches(graph)
        covered = np.concatenate([b.nodes for b in fwd])
        for d in graph.dff_ids:
            assert d in covered

    def test_dff_batch_uses_data_edge(self, setup):
        graph, _ = setup
        fwd, _ = baseline_batches(graph)
        dff_batch = fwd[0]
        assert (dff_batch.nodes == graph.dff_ids).all()
        assert (dff_batch.src == graph.dff_src).all()

    def test_reverse_includes_dff_consumers(self, setup):
        graph, _ = setup
        _, rev = baseline_batches(graph)
        srcs = np.concatenate([b.src for b in rev if b.src.size])
        dffs = set(int(d) for d in graph.dff_ids)
        assert set(srcs.tolist()) & dffs, (
            "baseline reverse pass should hear from DFD consumers"
        )


class TestGradientFlow:
    def test_all_parameters_receive_gradient(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        log: list = []
        pred_tr, pred_lg = model.forward(graph, wl, log=log)
        model.backward(log, np.ones_like(pred_tr), np.ones_like(pred_lg))
        missing = [
            name for name, p in model.named_parameters() if p.grad is None
        ]
        assert not missing, f"no gradient for {missing}"

    def test_gradients_finite(self, setup):
        graph, wl = setup
        model = DeepSeq(CFG)
        log: list = []
        pred_tr, pred_lg = model.forward(graph, wl, log=log)
        model.backward(log, np.ones_like(pred_tr), np.ones_like(pred_lg))
        for name, p in model.named_parameters():
            assert np.isfinite(p.grad).all(), name

"""Batched inference equivalence and BatchedPredictor's pack cutting."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.baselines import DagConvGnn, DagRecGnn
from repro.models.deepseq import DeepSeq
from repro.runtime import predictor as predictor_mod
from repro.runtime.pack import clear_pack_cache
from repro.runtime.plan import clear_plan_cache
from repro.runtime.predictor import (
    BatchedPredictor,
    cast_model,
    predict_one,
    predict_packed,
    run_packed_isolated,
)

from tests.conftest import build_pair as make_pair, mixed_fleet


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_pack_cache()
    yield
    clear_plan_cache()
    clear_pack_cache()


@pytest.fixture
def pack_sizes(monkeypatch):
    """Member count of every ``predict_packed`` call BatchedPredictor makes."""
    sizes = []
    real = predictor_mod.predict_packed

    def counting(model, graphs, workloads, **kw):
        sizes.append(len(graphs))
        return real(model, graphs, workloads, **kw)

    monkeypatch.setattr(predictor_mod, "predict_packed", counting)
    return sizes


MODELS = [
    pytest.param(
        lambda: DeepSeq(ModelConfig(hidden=16, iterations=3, seed=0)),
        id="deepseq",
    ),
    pytest.param(
        lambda: DagConvGnn(
            ModelConfig(hidden=16, iterations=3, aggregator="conv_sum", seed=1)
        ),
        id="dag_conv",
    ),
    pytest.param(
        lambda: DagRecGnn(
            ModelConfig(hidden=16, iterations=3, aggregator="attention", seed=2)
        ),
        id="dag_rec",
    ),
]


class TestPackedEquivalence:
    @pytest.mark.parametrize("make_model", MODELS)
    def test_float64_bitwise(self, make_model):
        model = make_model()
        graphs, workloads = mixed_fleet()
        sequential = [model.predict(g, w) for g, w in zip(graphs, workloads)]
        packed = predict_packed(model, graphs, workloads, dtype=np.float64)
        for seq, pack in zip(sequential, packed):
            np.testing.assert_array_equal(seq.tr, pack.tr)
            np.testing.assert_array_equal(seq.lg, pack.lg)

    @pytest.mark.parametrize("make_model", MODELS)
    def test_float32_close(self, make_model):
        model = make_model()
        graphs, workloads = mixed_fleet()
        sequential = [model.predict(g, w) for g, w in zip(graphs, workloads)]
        packed = predict_packed(model, graphs, workloads, dtype=np.float32)
        for seq, pack in zip(sequential, packed):
            assert pack.tr.dtype == np.float32
            assert np.abs(seq.tr - pack.tr).max() <= 1e-4
            assert np.abs(seq.lg - pack.lg).max() <= 1e-4

    @pytest.mark.parametrize("make_model", MODELS)
    def test_float32_bitwise_vs_sequential_float32(self, make_model):
        """Within one dtype the packing itself is exact: packed float32
        matches sequential float32 bitwise (the 1e-4 budget is purely the
        float64 -> float32 precision gap, not a packing artifact)."""
        model = make_model()
        graphs, workloads = mixed_fleet()
        sequential = [
            predict_one(model, g, w, dtype=np.float32)
            for g, w in zip(graphs, workloads)
        ]
        packed = predict_packed(model, graphs, workloads, dtype=np.float32)
        for seq, pack in zip(sequential, packed):
            np.testing.assert_array_equal(seq.tr, pack.tr)
            np.testing.assert_array_equal(seq.lg, pack.lg)

    def test_same_circuit_many_times(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=3)
        single = model.predict(graph, wl)
        packed = predict_packed(model, [graph] * 4, [wl] * 4, dtype=np.float64)
        for pred in packed:
            np.testing.assert_array_equal(single.tr, pred.tr)
            np.testing.assert_array_equal(single.lg, pred.lg)

    def test_mismatched_lengths_rejected(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=4)
        with pytest.raises(ValueError):
            predict_packed(model, [graph, graph], [wl])

    def test_shapes_per_member(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graphs, workloads = mixed_fleet()
        for graph, pred in zip(
            graphs, predict_packed(model, graphs, workloads)
        ):
            assert pred.tr.shape == (graph.num_nodes, 2)
            assert pred.lg.shape == (graph.num_nodes,)


class TestPredictOne:
    def test_accepts_netlist(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=5)
        from_graph = predict_one(model, graph, wl)
        from_netlist = predict_one(model, graph.netlist, wl)
        np.testing.assert_array_equal(from_graph.tr, from_netlist.tr)

    def test_matches_model_predict(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=6)
        a = model.predict(graph, wl)
        b = predict_one(model, graph, wl, dtype=np.float64)
        np.testing.assert_array_equal(a.tr, b.tr)

    def test_model_predict_dtype_kwarg(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=7)
        fast = model.predict(graph, wl, dtype="float32")
        exact = model.predict(graph, wl)
        assert fast.tr.dtype == np.float32
        assert np.abs(fast.tr - exact.tr).max() <= 1e-4


class TestCastModel:
    def test_masters_untouched(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        masters = [p.data for p in model.parameters()]
        assert cast_model(model, np.float64) is model
        replica = cast_model(model, np.float32)
        assert replica is not model
        assert cast_model(model, "float32") is replica  # cached
        assert cast_model(replica, np.float32) is replica
        for p, master, cast in zip(
            model.parameters(), masters, replica.parameters()
        ):
            assert p.data is master and p.data.dtype == np.float64
            assert cast.data.dtype == np.float32
            assert np.array_equal(cast.data, master.astype(np.float32))

    def test_replica_rebuilt_after_optimizer_step(self):
        from repro.nn.optim import SGD

        from tests.nn.tape import model_forward

        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=16)
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float32)
        before = predictor.predict(graph, wl)
        old = cast_model(model, np.float32)
        old_weights = [p.data.copy() for p in old.parameters()]
        opt = SGD(model.parameters(), lr=0.1)
        pred_tr, pred_lg = model_forward(model, graph, wl)
        (pred_tr.sum() + pred_lg.sum()).backward()
        opt.step()  # bumps the global parameter version
        after = predictor.predict(graph, wl)
        expected = model.predict(graph, wl)
        assert np.abs(after.tr - expected.tr).max() <= 1e-4
        assert np.abs(after.tr - before.tr).max() > 0
        # A new replica replaced the stale one, which was never edited.
        assert cast_model(model, np.float32) is not old
        for p, weights in zip(old.parameters(), old_weights):
            assert np.array_equal(p.data, weights)

    def test_replica_rebuilt_after_load_state_dict(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        other = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=7))
        graph, wl = make_pair(seed=17)
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float32)
        predictor.predict(graph, wl)  # builds the float32 replica
        model.load_state_dict(other.state_dict())
        refreshed = predictor.predict(graph, wl)
        expected = other.predict(graph, wl, dtype=np.float32)
        np.testing.assert_array_equal(refreshed.tr, expected.tr)

    def test_refresh_picks_up_new_weights(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graph, wl = make_pair(seed=8)
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float32)
        before = predictor.predict(graph, wl)
        for p in model.parameters():
            p.data[...] += 0.05  # simulate a fine-tuning update
        stale = predictor.predict(graph, wl)
        np.testing.assert_array_equal(before.tr, stale.tr)  # stale replica
        predictor.refresh_parameters()
        fresh = predictor.predict(graph, wl)
        expected = model.predict(graph, wl)
        assert np.abs(fresh.tr - expected.tr).max() <= 1e-4
        assert np.abs(fresh.tr - before.tr).max() > 1e-4

    def test_step_during_copy_leaves_the_entry_stale(self, monkeypatch):
        # An optimizer step landing while a replica is being copied: the
        # entry carries the version read before the copy, so the next call
        # builds a replica of the stepped weights instead of reusing it.
        from repro.nn.module import bump_parameter_version

        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        real_deepcopy = predictor_mod.copy.deepcopy

        def copy_then_step(obj):
            replica = real_deepcopy(obj)
            for p in model.parameters():
                p.data += 0.05
            bump_parameter_version()
            return replica

        monkeypatch.setattr(predictor_mod.copy, "deepcopy", copy_then_step)
        raced = cast_model(model, np.float32)
        monkeypatch.setattr(predictor_mod.copy, "deepcopy", real_deepcopy)
        fresh = cast_model(model, np.float32)
        assert fresh is not raced
        for p, cast in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(cast.data, p.data.astype(np.float32))
        assert cast_model(model, np.float32) is fresh

    def test_replicas_die_with_their_model(self):
        import gc
        import weakref

        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        model_ref = weakref.ref(model)
        replica_ref = weakref.ref(cast_model(model, np.float32))
        del model
        gc.collect()
        assert model_ref() is None
        assert replica_ref() is None

    def test_server_serves_cast_replicas_and_refreshes_them(self):
        from repro.serve import Server

        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        other = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=7))
        graph, wl = make_pair(seed=18)
        with Server(model, workers=2, batch_size=2, max_latency_ms=5,
                    dtype="float32") as srv:
            old = list(srv._replicas)
            assert all(
                p.data.dtype == np.float32
                for replica in old
                for p in replica.parameters()
            )
            served = srv.predict(graph, wl)
            exact = predict_one(model, graph, wl, dtype=np.float32)
            np.testing.assert_array_equal(served.tr, exact.tr)
            model.load_state_dict(other.state_dict())
            srv.refresh_parameters()
            assert not set(map(id, srv._replicas)) & set(map(id, old))
            fresh = srv.predict(graph, wl)
            expected = predict_one(other, graph, wl, dtype=np.float32)
            np.testing.assert_array_equal(fresh.tr, expected.tr)
            np.testing.assert_array_equal(fresh.lg, expected.lg)
        assert all(p.data.dtype == np.float64 for p in model.parameters())


class TestBatchedPredictor:
    def test_order_preserved(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        graphs, workloads = mixed_fleet()
        sequential = [model.predict(g, w) for g, w in zip(graphs, workloads)]
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float64)
        results = predictor.predict_many(graphs, workloads)
        for seq, res in zip(sequential, results):
            np.testing.assert_array_equal(seq.tr, res.tr)
            np.testing.assert_array_equal(seq.lg, res.lg)

    def test_packs_of_batch_size(self, pack_sizes):
        """Circuits are cut in order into packs of at most ``batch_size``,
        one ``predict_packed`` call each."""
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=10)
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float64)
        results = predictor.predict_many([graph] * 5, [wl] * 5)
        assert pack_sizes == [2, 2, 1]
        expected = model.predict(graph, wl)
        for pred in results:
            np.testing.assert_array_equal(pred.tr, expected.tr)

    def test_accepts_netlists(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=11)
        predictor = BatchedPredictor(model, batch_size=2, dtype=np.float64)
        pred = predictor.predict(graph.netlist, wl)
        np.testing.assert_array_equal(pred.tr, model.predict(graph, wl).tr)

    def test_rejects_pi_mismatch(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=13, n_pis=5)
        _, other_wl = make_pair(seed=14, n_pis=8)
        predictor = BatchedPredictor(model, batch_size=4)
        with pytest.raises(ValueError, match="PIs"):
            predictor.predict(graph, other_wl)
        with pytest.raises(ValueError, match="PIs"):
            predictor.predict_many([graph, graph], [wl, other_wl])

    def test_run_packed_isolated_slots_errors_in_place(self):
        """The serving chunk runner: sibling results around a poison slot."""
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=15)
        bad_wl = type(wl)(wl.pi_probs[:-1], name="bad", seed=0)
        results = run_packed_isolated(
            model, [graph, graph, graph], [wl, bad_wl, wl], dtype=np.float64
        )
        expected = model.predict(graph, wl)
        np.testing.assert_array_equal(results[0].tr, expected.tr)
        assert isinstance(results[1], ValueError)
        np.testing.assert_array_equal(results[2].tr, expected.tr)

    def test_invalid_configuration(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        with pytest.raises(ValueError):
            BatchedPredictor(model, batch_size=0)

    def test_predict_many_length_mismatch(self):
        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=12)
        predictor = BatchedPredictor(model, batch_size=2)
        with pytest.raises(ValueError):
            predictor.predict_many([graph], [wl, wl])

    def test_inference_does_not_import_serve(self):
        """The runtime layer sits below ``repro.serve``: batched prediction
        and evaluation load no ``repro.serve`` module."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            from repro.circuit import GeneratorConfig, random_sequential_netlist, to_aig
            from repro.circuit.graph import CircuitGraph
            from repro.models import DeepSeq, ModelConfig
            from repro.runtime import BatchedPredictor
            from repro.sim import random_workload
            from repro.train.dataset import CircuitSample
            from repro.train.trainer import evaluate

            samples = []
            for seed in (1, 2):
                nl = to_aig(random_sequential_netlist(
                    GeneratorConfig(n_pis=4, n_dffs=2, n_gates=25), seed=seed
                )).aig
                graph = CircuitGraph(nl)
                samples.append(CircuitSample(
                    graph=graph,
                    workload=random_workload(nl, seed=seed),
                    target_tr=np.full((graph.num_nodes, 2), 0.5),
                    target_lg=np.full(graph.num_nodes, 0.5),
                    name=f"s{seed}",
                ))
            model = DeepSeq(ModelConfig(hidden=8, iterations=1, seed=0))
            BatchedPredictor(model, batch_size=2).predict_many(
                [s.graph for s in samples], [s.workload for s in samples]
            )
            evaluate(model, samples)
            loaded = sorted(m for m in sys.modules if m.startswith("repro.serve"))
            assert not loaded, loaded
            """
        )
        root = Path(__file__).resolve().parents[2]
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr


class TestMemoryBudget:
    """Budgets move pack shape, never output bits."""

    def test_batched_predictor_budget_splits_packs_bitwise(self, pack_sizes):
        from repro.memory import MemoryBudget
        from repro.runtime.plan import plan_for

        model = DeepSeq(ModelConfig(hidden=16, iterations=2, seed=0))
        pairs = [make_pair(seed=s) for s in (51, 52, 53, 54)]
        graphs = [g for g, _ in pairs]
        wls = [w for _, w in pairs]
        with BatchedPredictor(model, batch_size=4, dtype=np.float64) as ref_pred:
            ref = ref_pred.predict_many(graphs, wls)
        one = plan_for(graphs[0]).resident_bytes(
            model.use_custom_batches, np.float64
        )
        pack_sizes.clear()  # drop the resident reference's one pack
        tight = BatchedPredictor(
            model,
            batch_size=4,
            dtype=np.float64,
            memory_budget=MemoryBudget(plan_bytes=one + one // 2),
        )
        with tight:
            got = tight.predict_many(graphs, wls)
        assert len(pack_sizes) > 1  # the budget split the pack
        assert sum(pack_sizes) == len(graphs)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a.tr, b.tr)
            np.testing.assert_array_equal(a.lg, b.lg)

    def test_budgeted_pack_always_admits_one_member(self):
        """A member whose plan alone is over the budget is still served,
        under the budget, bit for bit the resident prediction."""
        from repro.memory import MemoryBudget
        from repro.runtime.plan import plan_for

        model = DeepSeq(ModelConfig(hidden=16, iterations=1, seed=0))
        graph, wl = make_pair(seed=61)
        budget = MemoryBudget(plan_bytes=1)
        assert budget.plan_bytes < plan_for(graph).resident_bytes(
            model.use_custom_batches, np.float64
        )
        ref = predict_one(model, graph, wl, dtype=np.float64)
        with BatchedPredictor(
            model, batch_size=2, dtype=np.float64, memory_budget=budget
        ) as predictor:
            got = predictor.predict(graph, wl)
        np.testing.assert_array_equal(ref.tr, got.tr)
        np.testing.assert_array_equal(ref.lg, got.lg)

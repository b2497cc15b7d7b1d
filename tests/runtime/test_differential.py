"""Differential tests for the runtime fast paths.

Every fast path in the runtime has a slow, obviously-correct counterpart;
these tests pin the fast path to it:

* the fused cell kernels (GRU, dual attention) — the only executed
  forward of each cell — vs the composed operator graph of the autograd
  tape (``tests/nn/tape.py``), on the row inputs the sweep hands them:
  forward bitwise in both of the tape's grad modes, gradients to rounding
  error; row-deterministic at float64 and float32;
* float32 inference on a cast replica vs float64 — within tolerance;
* packed K-circuit execution vs sequential per-circuit ``predict`` —
  float64 bitwise, across all three model families, DFF-heavy circuits
  and single-node edge cases;
* packed training gradients vs :func:`merge_samples` — one sample built
  on the union netlist, forward and backward with no runtime involved —
  float64 bitwise.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.circuit.compose import disjoint_union
from repro.circuit.graph import CircuitGraph
from repro.models.aggregators import DualAttentionAggregator
from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.nn.recurrent import GRUCell
from repro.runtime.pack import clear_pack_cache, pack_graphs
from repro.runtime.plan import clear_plan_cache, plan_for
from repro.runtime.predictor import cast_model, predict_one, predict_packed
from repro.runtime.trainstep import pack_samples, train_step
from repro.sim.workload import Workload, random_workload
from repro.train.dataset import CircuitSample

CFG = ModelConfig(hidden=10, iterations=2, seed=0)

#: (model name, aggregator) — one row per model family.
FAMILIES = [
    ("deepseq", "dual_attention"),
    ("dag_recgnn", "attention"),
    ("dag_convgnn", "conv_sum"),
]


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_pack_cache()
    yield
    clear_plan_cache()
    clear_pack_cache()


from tests.conftest import build_pair, perturb_parameters, single_node_pair
from tests.nn.tape import (
    Tensor,
    apply_kernel,
    l1_loss,
    linear,
    model_forward,
    no_grad,
    param,
    segment_softmax,
)


def make_pair(seed=0, n_pis=4, n_dffs=3, n_gates=30):
    return build_pair(seed, n_pis, n_dffs, n_gates)


def dff_heavy_pair(seed=7):
    """More flip-flops than gates: exercises DFF copy + baseline batches."""
    return make_pair(seed=seed, n_dffs=12, n_gates=14)


def merge_samples(samples: list[CircuitSample], name: str = "batch") -> CircuitSample:
    """Topological batching by construction: one sample on the members'
    disjoint-union netlist, labels and PI statistics concatenated in member
    order.  The oracle :func:`pack_samples` + :func:`train_step` are held
    to; nothing in ``src/`` builds a minibatch this way."""
    if len(samples) == 1:
        return samples[0]
    mapping = disjoint_union([s.graph.netlist for s in samples], name=name)
    return CircuitSample(
        graph=CircuitGraph(mapping.union),
        workload=Workload(
            np.concatenate([s.workload.pi_probs for s in samples]),
            name=name,
            seed=samples[0].workload.seed,
        ),
        target_tr=np.concatenate([s.target_tr for s in samples], axis=0),
        target_lg=np.concatenate([s.target_lg for s in samples]),
        name=name,
        extras={"members": [s.name for s in samples]},
    )


def composed_gru(gru: GRUCell, x: Tensor, h: Tensor) -> Tensor:
    """``GRUCell.forward`` from individual autograd operators: the oracle
    its kernel pair must match bitwise in the forward values (both grad
    modes) and to rounding error in the gradients."""
    gi = x @ param(gru.w_ih).T + param(gru.b_ih)
    gh = h @ param(gru.w_hh).T + param(gru.b_hh)
    hs = gru.hidden_size
    i_r, i_z, i_n = (gi.narrow(1, k * hs, hs) for k in range(3))
    h_r, h_z, h_n = (gh.narrow(1, k * hs, hs) for k in range(3))
    r = (i_r + h_r).sigmoid()
    z = (i_z + h_z).sigmoid()
    n = (i_n + r * h_n).tanh()
    one = Tensor(np.ones_like(z.data))
    return (one - z) * n + z * h


def composed_dual_attention(
    agg: DualAttentionAggregator, h_src: Tensor, h_prev: Tensor, batch, layout
) -> Tensor:
    """``DualAttentionAggregator.forward`` (Eqs. 5-7) from individual
    autograd operators: the same oracle contract as :func:`composed_gru`."""
    # Eq. (5): logic message.
    scores = linear(agg.w1, h_prev).gather_rows(batch.dst_local) + linear(agg.w2, h_src)
    alpha = segment_softmax(scores, batch.dst_local, batch.num_nodes, layout=layout)
    m_lg = (h_src * alpha).segment_sum(batch.dst_local, batch.num_nodes, layout=layout)
    # Eq. (6): transition message — gate m_LG against the previous state.
    gate = (linear(agg.w3, h_prev) + linear(agg.w4, m_lg)).sigmoid()
    # Eq. (7): m_TR || m_LG.
    return Tensor.concat([m_lg * gate, m_lg], axis=1)


def level_rows(h_cur, h_prev, batch, requires_grad=False):
    """A level's aggregator inputs, gathered as the sweep gathers them:
    ``(h_cur[src], h_prev[nodes])`` from whole-state arrays."""
    return (
        Tensor(h_cur[batch.src], requires_grad=requires_grad),
        Tensor(h_prev[batch.nodes], requires_grad=requires_grad),
    )


def grads_of(model):
    return [
        None if p.grad is None else p.grad.copy() for p in model.parameters()
    ]


class TestFusedGruVsComposed:
    @pytest.mark.parametrize("rows", [1, 7])
    def test_forward_bitwise_and_grads_close(self, rows):
        rng = np.random.default_rng(3)
        gru = GRUCell(12, 6, seed=1)
        x = Tensor(rng.normal(size=(rows, 12)), requires_grad=True)
        h = Tensor(rng.normal(size=(rows, 6)), requires_grad=True)
        fused = apply_kernel(gru, (x, h))
        composed = composed_gru(gru, x, h)
        assert np.array_equal(fused.data, composed.data)
        seed_grad = rng.normal(size=fused.data.shape)
        fused.backward(seed_grad.copy())
        got = [p.grad.copy() for p in [x, h] + gru.parameters()]
        for p in [x, h] + gru.parameters():
            p.zero_grad()
        composed.backward(seed_grad.copy())
        want = [p.grad.copy() for p in [x, h] + gru.parameters()]
        for g1, g2 in zip(got, want):
            np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-13)


class TestFusedDualAttentionVsComposed:
    def test_forward_bitwise_and_grads_close(self):
        rng = np.random.default_rng(4)
        graph, _ = make_pair(seed=5)
        agg = DualAttentionAggregator(6, seed=2)
        h_cur = rng.normal(size=(graph.num_nodes, 6))
        h_prev = rng.normal(size=(graph.num_nodes, 6))
        for batch in graph.forward_batches[:3]:
            layout = batch.dst_layout()
            assert layout is not None
            h_src, h_dst = level_rows(h_cur, h_prev, batch, requires_grad=True)
            fused = apply_kernel(agg, (h_src, h_dst), batch)
            composed = composed_dual_attention(agg, h_src, h_dst, batch, layout)
            assert np.array_equal(fused.data, composed.data)
            seed_grad = rng.normal(size=fused.data.shape)
            fused.backward(seed_grad.copy())
            got = [p.grad.copy() for p in [h_src, h_dst] + agg.parameters()]
            for p in [h_src, h_dst] + agg.parameters():
                p.zero_grad()
            composed.backward(seed_grad.copy())
            want = [p.grad.copy() for p in [h_src, h_dst] + agg.parameters()]
            for g1, g2 in zip(got, want):
                np.testing.assert_allclose(g1, g2, rtol=1e-11, atol=1e-13)
            for p in agg.parameters():
                p.zero_grad()


class TestOneKernelPerCell:
    """Each cell's only kernel pair, run as one tape node: pinned to the
    composed oracle at float64 in both grad modes (both feed BLAS the
    contiguous transpose on both sides), row-deterministic, and float32
    within tolerance of float64.  The GRU has
    the paper's shape (hidden 64, dual-attention message + one-hot input):
    at that width BLAS does pick M-dependent kernels for a transposed
    view, so the determinism test is live."""

    @staticmethod
    def gru_inputs(rows, dtype=np.float64):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(rows, 132)).astype(dtype)
        h = rng.normal(size=(rows, 64)).astype(dtype)
        return x, h

    @staticmethod
    def agg_inputs(graph, dtype=np.float64):
        rng = np.random.default_rng(4)
        h_cur = rng.normal(size=(graph.num_nodes, 16)).astype(dtype)
        h_prev = rng.normal(size=(graph.num_nodes, 16)).astype(dtype)
        return h_cur, h_prev

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_gru_equals_composed_bitwise(self, rows, grad):
        gru = perturb_parameters(GRUCell(132, 64, seed=1))
        assert np.abs(gru.b_ih.data).min() > 0 and np.abs(gru.b_hh.data).min() > 0
        x, h = (Tensor(a) for a in self.gru_inputs(rows))
        with nullcontext() if grad else no_grad():
            fused = apply_kernel(gru, (x, h))
            composed = composed_gru(gru, x, h)
        assert fused.requires_grad == grad
        assert fused.data.dtype == np.float64
        assert np.array_equal(fused.data, composed.data)

    @pytest.mark.parametrize("grad", [True, False])
    def test_dual_attention_equals_composed_bitwise(self, grad):
        graph, _ = make_pair(seed=5)
        agg = perturb_parameters(DualAttentionAggregator(16, seed=2))
        h_cur, h_prev = self.agg_inputs(graph)
        checked = 0
        with nullcontext() if grad else no_grad():
            for batch in graph.forward_batches + graph.reverse_batches:
                if batch.num_edges == 0:
                    continue
                layout = batch.dst_layout()
                assert layout is not None
                h_src, h_dst = level_rows(h_cur, h_prev, batch)
                fused = apply_kernel(agg, (h_src, h_dst), batch)
                composed = composed_dual_attention(agg, h_src, h_dst, batch, layout)
                assert fused.requires_grad == grad
                assert np.array_equal(fused.data, composed.data)
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gru_rows_do_not_depend_on_batch_height(self, dtype):
        """Rows 1 and 7 alone equal their rows in the stacked batch of 8:
        what the packed-equals-sequential guarantee needs from the cell,
        and what breaks if the cell feeds BLAS the transposed view."""
        gru = cast_model(perturb_parameters(GRUCell(132, 64, seed=1)), dtype)
        (x1, h1), (x7, h7) = self.gru_inputs(1, dtype), self.gru_inputs(7, dtype)
        x7, h7 = x7[::-1].copy(), h7[::-1].copy()  # distinct from row 1
        with no_grad():
            out1 = apply_kernel(gru, (Tensor(x1), Tensor(h1))).data
            out7 = apply_kernel(gru, (Tensor(x7), Tensor(h7))).data
            out8 = apply_kernel(
                gru, (Tensor(np.concatenate([x1, x7])), Tensor(np.concatenate([h1, h7])))
            ).data
        assert out8.dtype == dtype
        assert np.array_equal(out8[:1], out1)
        assert np.array_equal(out8[1:], out7)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dual_attention_rows_do_not_depend_on_packing(self, dtype):
        """A level batch of a packed pair gives each member the rows its
        own level batch gives it alone."""
        pairs = [make_pair(1), make_pair(2, n_gates=45)]
        graphs = [g for g, _ in pairs]
        packed = pack_graphs(graphs)
        agg = cast_model(
            perturb_parameters(DualAttentionAggregator(16, seed=2)), dtype
        )
        states = [self.agg_inputs(g, dtype) for g in graphs]
        union_cur = np.concatenate([s[0] for s in states])
        union_prev = np.concatenate([s[1] for s in states])
        union_batches, _ = packed.plan.schedule(custom=True)
        batch_of = np.full(packed.plan.num_nodes, -1)
        for k, union_batch in enumerate(union_batches):
            batch_of[union_batch.nodes] = k
        checked = 0
        with no_grad():
            union_out = [
                apply_kernel(agg, level_rows(union_cur, union_prev, b), b).data
                if b.num_edges
                else None
                for b in union_batches
            ]
            for member, graph in enumerate(graphs):
                h_cur, h_prev = states[member]
                for batch in plan_for(graph).schedule(custom=True)[0]:
                    if batch.num_edges == 0:
                        continue
                    nodes = batch.nodes + packed.offsets[member]
                    k = batch_of[nodes[0]]
                    rows = np.searchsorted(union_batches[k].nodes, nodes)
                    assert np.array_equal(union_batches[k].nodes[rows], nodes)
                    solo = apply_kernel(agg, level_rows(h_cur, h_prev, batch), batch).data
                    assert solo.dtype == dtype
                    assert np.array_equal(union_out[k][rows], solo)
                    checked += 1
        assert checked >= 4

    def test_float32_within_tolerance_of_float64(self):
        gru = perturb_parameters(GRUCell(132, 64, seed=1))
        x, h = self.gru_inputs(7)
        graph, _ = make_pair(seed=5)
        agg = perturb_parameters(DualAttentionAggregator(16, seed=2))
        h_cur, h_prev = self.agg_inputs(graph)
        batch = max(graph.forward_batches, key=lambda b: b.num_edges)
        with no_grad():
            gru64 = apply_kernel(gru, (Tensor(x), Tensor(h))).data
            agg64 = apply_kernel(agg, level_rows(h_cur, h_prev, batch), batch).data
            gru32 = apply_kernel(
                cast_model(gru, np.float32),
                (Tensor(x.astype(np.float32)), Tensor(h.astype(np.float32))),
            ).data
            agg32 = apply_kernel(
                cast_model(agg, np.float32),
                level_rows(h_cur.astype(np.float32), h_prev.astype(np.float32), batch),
                batch,
            ).data
        assert gru32.dtype == np.float32 and agg32.dtype == np.float32
        np.testing.assert_allclose(gru32, gru64, atol=2e-5)
        np.testing.assert_allclose(agg32, agg64, atol=2e-5)


class TestFloat32VsFloat64:
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_predictions_within_tolerance(self, name, agg):
        model = perturb_parameters(make_model(name, CFG, agg))
        for graph, wl in [make_pair(3), dff_heavy_pair(), single_node_pair()]:
            p64 = predict_one(model, graph, wl, dtype=np.float64)
            p32 = predict_one(model, graph, wl, dtype=np.float32)
            assert p32.tr.dtype == np.float32
            np.testing.assert_allclose(p32.tr, p64.tr, atol=2e-4)
            np.testing.assert_allclose(p32.lg, p64.lg, atol=2e-4)


class TestPackedVsSequential:
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_float64_bitwise(self, name, agg):
        model = make_model(name, CFG, agg)
        pairs = [
            make_pair(1),
            dff_heavy_pair(),
            single_node_pair(),
            make_pair(2, n_gates=45),
        ]
        graphs = [g for g, _ in pairs]
        workloads = [w for _, w in pairs]
        packed = predict_packed(model, graphs, workloads, dtype=np.float64)
        for (graph, wl), pred in zip(pairs, packed):
            solo = model.predict(graph, wl)
            assert np.array_equal(pred.tr, solo.tr)
            assert np.array_equal(pred.lg, solo.lg)


class TestPackedVsMergedTraining:
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_gradients_bitwise(self, name, agg):
        pairs = [make_pair(1), dff_heavy_pair(), single_node_pair()]
        rng = np.random.default_rng(0)
        samples = [
            CircuitSample(
                graph=graph,
                workload=wl,
                target_tr=rng.uniform(size=(graph.num_nodes, 2)),
                target_lg=rng.uniform(size=graph.num_nodes),
                name=f"s{k}",
            )
            for k, (graph, wl) in enumerate(pairs)
        ]
        model = make_model(name, CFG, agg)
        model.zero_grad()
        result = train_step(model, pack_samples(samples))
        packed_grads = grads_of(model)

        model.zero_grad()
        merged = merge_samples(list(samples), name="merged")
        pred_tr, pred_lg = model_forward(model, merged.graph, merged.workload)
        loss_tr = l1_loss(pred_tr, merged.target_tr)
        loss_lg = l1_loss(pred_lg, merged.target_lg[:, None])
        (loss_tr + loss_lg).backward()
        merged_grads = grads_of(model)

        assert result.loss == pytest.approx(
            loss_tr.item() + loss_lg.item(), rel=0, abs=0
        )
        for got, want in zip(packed_grads, merged_grads):
            assert got is not None and want is not None
            assert np.array_equal(got, want)

    def test_per_member_losses_unpack(self):
        graph1, wl1 = make_pair(1)
        graph2, wl2 = make_pair(2)
        rng = np.random.default_rng(1)
        samples = [
            CircuitSample(
                graph=g,
                workload=w,
                target_tr=rng.uniform(size=(g.num_nodes, 2)),
                target_lg=rng.uniform(size=g.num_nodes),
                name=n,
            )
            for g, w, n in [(graph1, wl1, "a"), (graph2, wl2, "b")]
        ]
        model = make_model("deepseq", CFG, "dual_attention")
        batch = pack_samples(samples)
        result = train_step(model, batch)
        # Per-member losses must be the L1 means over each member's slice
        # of the packed forward (the same forward the gradients came from).
        with no_grad():
            pred_tr, pred_lg = model_forward(model, batch.graph, batch.workload)
        for k, sample in enumerate(samples):
            sl = batch.member_slice(k)
            assert result.member_tr[k] == pytest.approx(
                np.abs(pred_tr.data[sl] - sample.target_tr).mean(), abs=1e-15
            )
            assert result.member_lg[k] == pytest.approx(
                np.abs(pred_lg.data[sl, 0] - sample.target_lg).mean(),
                abs=1e-15,
            )
        # And the names ride along for reporting.
        assert result.names == ("a", "b")

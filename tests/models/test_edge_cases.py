"""Edge-case circuits through the full model stack.

Degenerate inputs — no flip-flops, single gates, deep chains, pinned
workloads — must produce well-formed predictions, not crashes or NaNs.
"""

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.models.base import ModelConfig
from repro.models.baselines import DagConvGnn, DagRecGnn
from repro.models.deepseq import DeepSeq
from repro.sim.workload import Workload

CFG = ModelConfig(hidden=8, iterations=2, seed=0)
ALL_MODELS = [DeepSeq, DagRecGnn, DagConvGnn]


def tiny_and() -> Netlist:
    nl = Netlist("tiny")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    g = nl.add_gate(GateType.AND, [a, b], "g")
    nl.add_po(g)
    nl.validate()
    return nl


def combinational_chain(depth: int) -> Netlist:
    nl = Netlist("chain")
    cur = nl.add_pi("a")
    for k in range(depth):
        cur = nl.add_gate(GateType.NOT, [cur], f"n{k}")
    nl.add_po(cur)
    nl.validate()
    return nl


def ff_only() -> Netlist:
    nl = Netlist("ffonly")
    a = nl.add_pi("a")
    ff = nl.add_dff(a, "ff")
    nl.add_po(ff)
    nl.validate()
    return nl


class TestDegenerateCircuits:
    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_single_gate(self, model_cls):
        nl = tiny_and()
        model = model_cls(CFG)
        pred = model.predict(CircuitGraph(nl), Workload(np.array([0.3, 0.7])))
        assert pred.tr.shape == (3, 2)
        assert np.isfinite(pred.tr).all()

    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_no_dffs(self, model_cls):
        nl = combinational_chain(6)
        model = model_cls(CFG)
        pred = model.predict(CircuitGraph(nl), Workload(np.array([0.5])))
        assert np.isfinite(pred.lg).all()

    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_dff_passthrough_circuit(self, model_cls):
        nl = ff_only()
        model = model_cls(CFG)
        pred = model.predict(CircuitGraph(nl), Workload(np.array([0.9])))
        assert pred.tr.shape == (2, 2)

    def test_deep_chain_stable(self):
        nl = combinational_chain(200)
        model = DeepSeq(CFG)
        pred = model.predict(CircuitGraph(nl), Workload(np.array([0.5])))
        assert np.isfinite(pred.lg).all()
        assert (pred.lg >= 0).all() and (pred.lg <= 1).all()


class TestWorkloadExtremes:
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_pinned_workloads(self, p):
        nl = tiny_and()
        model = DeepSeq(CFG)
        pred = model.predict(
            CircuitGraph(nl), Workload(np.array([p, p]))
        )
        assert np.isfinite(pred.tr).all()

    def test_different_extremes_differ(self):
        nl = tiny_and()
        model = DeepSeq(CFG)
        graph = CircuitGraph(nl)
        lo = model.predict(graph, Workload(np.array([0.0, 0.0])))
        hi = model.predict(graph, Workload(np.array([1.0, 1.0])))
        assert not np.allclose(lo.lg, hi.lg)


class TestTrainingEdges:
    def test_single_node_supervision(self):
        """Training on the tiniest circuit neither crashes nor NaNs."""
        from repro.nn.optim import Adam

        from tests.nn.tape import l1_loss, model_forward

        nl = tiny_and()
        graph = CircuitGraph(nl)
        wl = Workload(np.array([0.5, 0.5]))
        model = DeepSeq(CFG)
        opt = Adam(model.parameters(), lr=1e-3)
        target_tr = np.full((3, 2), 0.25)
        target_lg = np.full((3, 1), 0.5)
        for _ in range(3):
            opt.zero_grad()
            pred_tr, pred_lg = model_forward(model, graph, wl)
            (l1_loss(pred_tr, target_tr) + l1_loss(pred_lg, target_lg)).backward()
            opt.step()
        for _, p in model.named_parameters():
            assert np.isfinite(p.data).all()

    def test_iterations_zero_rejected_gracefully(self):
        """T=0 models skip propagation entirely but still regress."""
        nl = tiny_and()
        model = DeepSeq(ModelConfig(hidden=8, iterations=0, seed=0))
        pred = model.predict(CircuitGraph(nl), Workload(np.array([0.5, 0.5])))
        assert pred.tr.shape == (3, 2)

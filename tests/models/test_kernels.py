"""The cells' array kernel pairs as the sweep runs them.

``propagate`` calls ``kernel_forward``/``kernel_backward`` of the
aggregator and the GRU directly, in both grad modes, so training runs the
serving arithmetic: its forward values are bitwise those of the same call
under ``no_grad``, and the sweep builds no ``Tensor`` per level.
"""

import ast
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.nn.tensor import Tensor, no_grad
from repro.runtime.trainstep import pack_samples
from repro.sim.workload import random_workload
from repro.train.dataset import CircuitSample

from tests.conftest import build_subcircuits, perturb_parameters, shallow_pair

FAMILIES = [
    ("deepseq", "dual_attention"),
    ("dag_recgnn", "attention"),
    ("dag_convgnn", "conv_sum"),
]

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def pretrain_batch():
    """Four packed family sub-circuits (90-444 nodes, up to 67 levels), the
    shape of a ``pretrain`` benchmark minibatch."""
    circuits = build_subcircuits("opencores", 2, 3) + build_subcircuits("itc99", 2, 3)
    rng = np.random.default_rng(0)
    samples = []
    for k, nl in enumerate(circuits):
        graph = CircuitGraph(nl)
        samples.append(
            CircuitSample(
                graph=graph,
                workload=random_workload(nl, seed=k),
                target_tr=rng.uniform(size=(graph.num_nodes, 2)),
                target_lg=rng.uniform(size=graph.num_nodes),
                name=f"m{k}",
            )
        )
    return pack_samples(samples)


def inverter_chain(depth: int = 40):
    """A PI driving ``depth`` inverters: one forward level per inverter."""
    nl = Netlist(name=f"chain{depth}")
    node = nl.add_pi("a")
    for k in range(depth):
        node = nl.add_gate(GateType.NOT, [node], f"n{k}")
    nl.add_po(node)
    nl.validate()
    return CircuitGraph(nl), random_workload(nl, seed=depth)


class TestTrainingForwardEqualsServing:
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_predictions_bitwise(self, name, agg):
        model = perturb_parameters(
            make_model(name, ModelConfig(hidden=32, iterations=4), agg)
        )
        batch = pretrain_batch()
        pred_tr, pred_lg = model(batch.graph, batch.workload, plan=batch.plan)
        assert pred_tr.requires_grad
        with no_grad():
            serve_tr, serve_lg = model(batch.graph, batch.workload, plan=batch.plan)
        assert not serve_tr.requires_grad
        assert np.array_equal(pred_tr.data, serve_tr.data)
        assert np.array_equal(pred_lg.data, serve_lg.data)


class TestNoTensorPerLevel:
    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_embed_tensor_count_independent_of_depth(
        self, monkeypatch, name, agg, grad
    ):
        model = make_model(name, ModelConfig(hidden=8, iterations=2), agg)
        deep, shallow = inverter_chain(), shallow_pair()
        assert deep[0].num_levels > 10 * shallow[0].num_levels
        for graph, wl in (deep, shallow):
            model.embed(graph, wl)  # compile plans outside the count
        built = [0]
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        counts = []
        for graph, wl in (deep, shallow):
            built[0] = 0
            with nullcontext() if grad else no_grad():
                model.embed(graph, wl)
            counts.append(built[0])
        assert counts[0] == counts[1]


def test_grad_mode_is_read_only_by_the_tape_gate():
    """No kernel branches on grad mode: in ``nn/`` and ``models/`` only
    ``Tensor._make`` (whether to record a node) and ``no_grad`` itself
    call ``is_grad_enabled``."""
    callers = set()
    for package in ("nn", "models"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "is_grad_enabled"
                    ):
                        callers.add((path.name, func.name))
    assert callers == {("tensor.py", "_make"), ("tensor.py", "__enter__")}

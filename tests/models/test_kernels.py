"""The kernel pairs as training and serving run them.

Training runs the forward kernels with a context log, the closed-form L1
gradient and the backward kernels; serving runs the same forward kernels
without a log.  So the training forward is bitwise the serving forward,
``src/`` holds no autograd tape, and ``p.grad`` keeps the contract the
optimizers and the data-parallel executor rely on.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.graph import CircuitGraph
from repro.models.base import ModelConfig
from repro.models.registry import make_model
from repro.runtime.trainstep import pack_samples, train_step
from repro.sim.workload import random_workload
from repro.train.dataset import CircuitSample

from tests.conftest import build_subcircuits, perturb_parameters, single_node_pair

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


class TestTrainingForwardEqualsServing:
    @pytest.mark.parametrize("name,agg", FAMILIES)
    def test_predictions_bitwise(self, name, agg):
        model = perturb_parameters(
            make_model(name, ModelConfig(hidden=32, iterations=4), agg)
        )
        batch = pretrain_batch()
        log: list = []
        pred_tr, pred_lg = model.forward(
            batch.graph, batch.workload, plan=batch.plan, log=log
        )
        assert log
        serve_tr, serve_lg = model.forward(batch.graph, batch.workload, plan=batch.plan)
        assert np.array_equal(pred_tr, serve_tr)
        assert np.array_equal(pred_lg, serve_lg)


#: What only the autograd tape defines; it lives in ``tests/nn/tape.py``.
TAPE_NAMES = {"Tensor", "no_grad", "is_grad_enabled", "apply_kernel"}


def test_src_defines_and_imports_no_tape():
    """``src/`` trains through kernel pairs alone: no module defines or
    imports a tape name, imports ``repro.nn.functional`` (the composed
    operators) or imports from ``tests``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if node.name in TAPE_NAMES:
                    found.append(f"{where}: defines {node.name}")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {a.name for a in node.names}
                if module.startswith("tests") or module == "repro.nn.functional":
                    found.append(f"{where}: imports from {module}")
                elif names & TAPE_NAMES:
                    found.append(f"{where}: imports {sorted(names & TAPE_NAMES)}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("tests") or alias.name == "repro.nn.functional":
                        found.append(f"{where}: imports {alias.name}")
    assert not (SRC / "nn" / "functional.py").exists()
    assert not found, found


class TestGradContract:
    """``p.grad`` as the trainer and the data-parallel executor use it."""

    def test_fresh_after_zero_grad_in_place_without(self):
        model = make_model("deepseq", ModelConfig(hidden=8, iterations=2), "dual_attention")
        batch = pretrain_batch()
        params = model.parameters()
        model.zero_grad()
        train_step(model, batch)
        first = [p.grad for p in params]
        model.zero_grad()
        train_step(model, batch)
        second = [p.grad for p in params]
        for a, b in zip(first, second):
            assert a is not b and np.array_equal(a, b)
        assert not any(a is b for k, a in enumerate(second) for b in second[k + 1 :])
        once = [g.copy() for g in second]
        train_step(model, batch)
        for p, g, g1 in zip(params, second, once):
            assert p.grad is g
            assert np.array_equal(g, g1 + g1)

    def test_parameters_without_gradient_stay_none(self):
        model = make_model("deepseq", ModelConfig(hidden=8, iterations=2), "dual_attention")
        graph, wl = single_node_pair()
        sample = CircuitSample(
            graph=graph,
            workload=wl,
            target_tr=np.full((1, 2), 0.5),
            target_lg=np.full(1, 0.5),
            name="one",
        )
        model.zero_grad()
        train_step(model, pack_samples([sample]))
        heads = {p for m in (model.head_tr, model.head_lg) for p in m.parameters()}
        for name, p in model.named_parameters():
            assert (p.grad is not None) == (p in heads), name

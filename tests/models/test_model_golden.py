"""Golden values pinning what the GNN computes, not only that it agrees
with itself.

Every other model test is a differential (packed = sequential, DDP =
sequential, kernel = composed oracle); a change that moves every path the
same way passes all of them.  These tests compare against numbers committed
in ``model_golden.npz``, computed on two small sequential AIGs — the
simulation golden zoo (:func:`tests.sim._engines.gate_zoo_netlist`) and the
library's ``s27`` — at hidden width 8 and T = 2:

* float64 predictions of every ``models/registry.py`` family and
  aggregator, and float32 packed serving predictions of each;
* the parameter gradients of one packed ``train_step`` per family;
* parameters and Adam state after three ``Trainer`` steps with
  ``grad_accum=2``, and the same run interrupted and resumed from its
  checkpoint after step 2;
* parameters and last gradients after one ``finetune_on_workloads`` step
  and one ``finetune_grannite`` step, and Grannite's float64 predictions.

Predictions are stored whole.  Parameters, gradients and Adam moments are
stored as a sketch: eight fixed random projections per array (see
:func:`_sketch`), which any change to any entry moves, so the reference
stays under 100 KB.  Float64 compares at ``rtol=1e-12`` and float32 at
``rtol=1e-5``; at the commit that wrote the reference every value matched
bitwise on the host that wrote it, so the tolerances are only headroom for
a BLAS that picks a different kernel on another CPU.  After a deliberate numerical change,
rewrite the reference with ``PYTHONPATH=src python -m
tests.models.test_model_golden`` and list the moved keys with their
largest relative move in the change log.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import to_aig
from repro.circuit.graph import CircuitGraph
from repro.circuit.library import library_circuit
from repro.models.base import ModelConfig
from repro.models.grannite import Grannite, SourceActivity
from repro.models.registry import MODEL_NAMES, make_model
from repro.nn.optim import Adam
from repro.runtime.predictor import predict_packed
from repro.runtime.trainstep import pack_samples, train_step
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import random_workload
from repro.train.dataset import CircuitSample
from repro.train.finetune import (
    FinetuneConfig,
    finetune_grannite,
    finetune_on_workloads,
)
from repro.train.trainer import TrainConfig, Trainer

from tests.conftest import perturb_parameters
from tests.sim._engines import gate_zoo_netlist

REFERENCE = Path(__file__).with_name("model_golden.npz")

CFG = ModelConfig(hidden=8, iterations=2, mlp_hidden=8, seed=0)
SIM = SimConfig(cycles=40, streams=32, seed=3)
RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


@lru_cache(maxsize=None)
def circuits() -> dict[str, CircuitGraph]:
    return {
        "zoo": CircuitGraph(to_aig(gate_zoo_netlist()).aig),
        "s27": CircuitGraph(to_aig(library_circuit("s27")).aig),
    }


@lru_cache(maxsize=None)
def samples() -> tuple[CircuitSample, ...]:
    out = []
    for k, graph in enumerate(circuits().values()):
        wl = random_workload(graph.netlist, seed=100 + k)
        out.append(CircuitSample.from_sim(simulate(graph.netlist, wl, SIM), wl, False))
    return tuple(out)


def _model(name: str, agg: str):
    return perturb_parameters(make_model(name, CFG, agg))


SKETCH = 8


def _sketch(a: np.ndarray) -> np.ndarray:
    """``SKETCH`` projections of ``a`` on fixed standard-normal vectors
    (the array itself when it is no larger)."""
    flat = np.asarray(a, dtype=np.float64).ravel()
    if flat.size <= SKETCH:
        return flat.copy()
    basis = np.random.default_rng(flat.size).standard_normal((SKETCH, flat.size))
    return np.einsum("kn,n->k", basis, flat)


def _state(prefix: str, model, opt: Adam | None = None) -> dict[str, np.ndarray]:
    out = {f"{prefix}/param/{n}": _sketch(p.data) for n, p in model.named_parameters()}
    if opt is not None:
        for k, v in opt.state_dict().items():
            out[f"{prefix}/adam/{k}"] = _sketch(v)
    return out


def _grads(prefix: str, model) -> dict[str, np.ndarray]:
    return {
        f"{prefix}/grad/{n}": _sketch(p.grad)
        for n, p in model.named_parameters()
        if p.grad is not None
    }


def predictions() -> dict[str, np.ndarray]:
    graphs = circuits()
    wls = {c: random_workload(g.netlist, seed=7) for c, g in graphs.items()}
    out = {}
    for name, agg in MODEL_NAMES:
        model = _model(name, agg)
        for c, graph in graphs.items():
            pred = model.predict(graph, wls[c])
            out[f"f64/{name}/{agg}/{c}/tr"] = pred.tr
            out[f"f64/{name}/{agg}/{c}/lg"] = pred.lg
        packed = predict_packed(
            model, list(graphs.values()), list(wls.values()), dtype=np.float32
        )
        for c, pred in zip(graphs, packed):
            out[f"f32/{name}/{agg}/{c}/tr"] = pred.tr
            out[f"f32/{name}/{agg}/{c}/lg"] = pred.lg
    return out


def step_gradients() -> dict[str, np.ndarray]:
    out = {}
    batch = pack_samples(list(samples()))
    for name, agg in MODEL_NAMES:
        model = _model(name, agg)
        model.zero_grad()
        train_step(model, batch, tr_weight=1.0, lg_weight=0.5, loss_scale=0.5)
        out.update(_grads(f"step/{name}/{agg}", model))
    return out


def _train_config(**kw) -> TrainConfig:
    return TrainConfig(epochs=3, lr=1e-2, batch_size=1, grad_accum=2, seed=0, **kw)


def trainer_run() -> dict[str, np.ndarray]:
    model = _model("deepseq", "dual_attention")
    opt = Adam(model.parameters(), lr=1e-2)
    history = Trainer(_train_config()).train(model, list(samples()), opt)
    out = _state("trainer", model, opt)
    out["trainer/loss"] = np.array([h.loss for h in history])
    return out


def trainer_resumed(tmp: Path) -> dict[str, np.ndarray]:
    path = str(tmp / "golden.ckpt")
    first = _model("deepseq", "dual_attention")
    Trainer(_train_config(checkpoint_path=path, stop_after=2)).train(
        first, list(samples()), Adam(first.parameters(), lr=1e-2)
    )
    model = _model("deepseq", "dual_attention")
    opt = Adam(model.parameters(), lr=1e-2)
    history = Trainer(_train_config(checkpoint_path=path, resume=True)).train(
        model, list(samples()), opt
    )
    out = _state("trainer", model, opt)
    out["trainer/loss"] = np.array([h.loss for h in history])
    return out


def _finetune_config() -> FinetuneConfig:
    return FinetuneConfig(num_workloads=1, epochs=1, lr=1e-2, sim=SIM)


def finetunes() -> dict[str, np.ndarray]:
    nl = circuits()["s27"].netlist
    model = _model("deepseq", "dual_attention")
    finetune_on_workloads(model, nl, _finetune_config())
    out = {**_state("finetune", model), **_grads("finetune", model)}

    grannite = perturb_parameters(Grannite(CFG))
    graph = circuits()["zoo"]
    wl = random_workload(graph.netlist, seed=7)
    pred = grannite.predict_full(
        graph, SourceActivity.from_sim(graph, simulate(graph.netlist, wl, SIM))
    )
    out["grannite/f64/tr"] = pred.tr
    out["grannite/f64/lg"] = pred.lg
    finetune_grannite(grannite, nl, _finetune_config())
    out.update(_state("grannite", grannite))
    out.update(_grads("grannite", grannite))
    return out


def compute(tmp: Path) -> dict[str, dict[str, np.ndarray]]:
    """Every pinned value, grouped as the tests below check them."""
    return {
        "predictions": predictions(),
        "step_gradients": step_gradients(),
        "trainer": trainer_run(),
        "trainer_resumed": trainer_resumed(tmp),
        "finetunes": finetunes(),
    }


def _flat(values: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    keys = sorted(values)
    return np.array(keys), np.concatenate([values[k].ravel() for k in keys])


def regenerate(path: Path = REFERENCE) -> None:
    """Rewrite the committed reference from the current code: per group,
    the sorted key names and their values raveled into one vector."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        groups = compute(Path(tmp))
    del groups["trainer_resumed"]  # checked against the trainer group
    out = {}
    for name, values in groups.items():
        for dtype in sorted({v.dtype.str for v in values.values()}):
            part = {k: v for k, v in values.items() if v.dtype.str == dtype}
            out[f"{name}.{dtype}.keys"], out[f"{name}.{dtype}"] = _flat(part)
    np.savez_compressed(path, **out)


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as ref:
        return {k: ref[k] for k in ref.files}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("golden"))


def _check(got: dict[str, np.ndarray], reference: dict[str, np.ndarray], group):
    moved = []
    dtypes = {v.dtype.str for v in got.values()}
    assert {k for k in reference if k.startswith(f"{group}.") and k.endswith(".keys")} == {
        f"{group}.{d}.keys" for d in dtypes
    }
    for dtype in dtypes:
        part = {k: v for k, v in got.items() if v.dtype.str == dtype}
        keys, values = _flat(part)
        assert list(keys) == list(reference[f"{group}.{dtype}.keys"])
        want = reference[f"{group}.{dtype}"]
        assert values.shape == want.shape
        rtol = RTOL[values.dtype]
        lo = 0
        for key in keys:
            n = part[key].size
            a, b = values[lo : lo + n], want[lo : lo + n]
            lo += n
            scale = np.abs(b).max(initial=0.0)
            if not np.allclose(a, b, rtol=rtol, atol=rtol * scale):
                rel = np.abs(a - b).max() / max(scale, 1e-300)
                moved.append(f"{key}: max relative move {rel:.3g}")
    assert not moved, "\n".join(moved)


def test_reference_is_small():
    assert REFERENCE.stat().st_size < 100_000


def test_predictions(computed, reference):
    _check(computed["predictions"], reference, "predictions")


def test_train_step_gradients(computed, reference):
    _check(computed["step_gradients"], reference, "step_gradients")


def test_trainer_steps_with_accumulation(computed, reference):
    _check(computed["trainer"], reference, "trainer")


def test_trainer_resumed_at_step_two(computed, reference):
    _check(computed["trainer_resumed"], reference, "trainer")


def test_finetunes(computed, reference):
    _check(computed["finetunes"], reference, "finetunes")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {REFERENCE}")

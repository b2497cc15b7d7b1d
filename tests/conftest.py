"""Shared test fixtures: session-scoped circuit/workload/label factories.

Building a random sequential netlist, AIG-converting it, compiling the
``CircuitGraph`` and simulating ground-truth labels is the setup cost of
most model/runtime/serve tests — and the same handful of (seed, size)
combinations used to be rebuilt per test file.  The factories here memoize
those builds for the whole session.  Everything returned is treated as
immutable by convention: tests must not mutate a factory-built netlist,
graph or workload (build one inline if you need to).

The ``slow`` marker (registered in pyproject.toml) tags the heavy fuzz /
stress tier: tier-1 CI runs ``-m "not slow"``; the nightly job runs all.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.circuit import GeneratorConfig, random_sequential_netlist, to_aig
from repro.circuit.gates import GateType
from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist
from repro.sim.workload import random_workload


def packed_minibatches(dataset, batch_size, rng=None):
    """Membership partition + per-group packing, composed as the trainer does."""
    from repro.runtime.trainstep import minibatch_membership, pack_samples

    return [
        pack_samples([dataset[i] for i in members])
        for members in minibatch_membership(len(dataset), batch_size, rng)
    ]


def perturb_parameters(module, seed: int = 0, scale: float = 0.1):
    """Move every parameter of ``module`` off its initial value, in place.

    Biases start at exactly zero, which hides any reordering of the bias
    sums and makes float32 and float64 weights agree more than they will
    after training; differential tests perturb first.  Returns ``module``.
    """
    from repro.nn.module import bump_parameter_version

    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data += rng.normal(scale=scale, size=p.data.shape)
    bump_parameter_version()
    return module


@lru_cache(maxsize=None)
def build_graph(
    seed: int = 0,
    n_pis: int = 5,
    n_dffs: int = 3,
    n_gates: int = 40,
    aig: bool = True,
) -> CircuitGraph:
    """Memoized compiled graph of a random sequential netlist."""
    nl = random_sequential_netlist(
        GeneratorConfig(n_pis=n_pis, n_dffs=n_dffs, n_gates=n_gates), seed=seed
    )
    if aig:
        nl = to_aig(nl).aig
    return CircuitGraph(nl)


@lru_cache(maxsize=None)
def build_pair(
    seed: int = 0,
    n_pis: int = 5,
    n_dffs: int = 3,
    n_gates: int = 40,
    aig: bool = True,
    workload_seed: int | None = None,
):
    """Memoized (graph, workload); workload seed defaults to 1000 + seed."""
    graph = build_graph(seed, n_pis, n_dffs, n_gates, aig)
    wl_seed = 1000 + seed if workload_seed is None else workload_seed
    return graph, random_workload(graph.netlist, seed=wl_seed)


@lru_cache(maxsize=None)
def build_labels(
    seed: int = 0,
    n_pis: int = 5,
    n_dffs: int = 3,
    n_gates: int = 40,
    aig: bool = True,
    workload_seed: int | None = None,
    cycles: int = 100,
    sim_seed: int = 2,
):
    """Memoized (graph, workload, SimResult) ground-truth triple."""
    from repro.sim.logicsim import SimConfig, simulate

    graph, wl = build_pair(seed, n_pis, n_dffs, n_gates, aig, workload_seed)
    labels = simulate(graph.netlist, wl, SimConfig(cycles=cycles, seed=sim_seed))
    return graph, wl, labels


@lru_cache(maxsize=None)
def shallow_pair(seed: int = 99):
    """A depth-1 circuit: packed with deep members, the union levels
    beyond its depth contain none of its nodes (empty member levels)."""
    nl = Netlist(name="shallow")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    g = nl.add_gate(GateType.AND, [a, b], "g")
    nl.add_po(g)
    nl.validate()
    return CircuitGraph(nl), random_workload(nl, seed=seed)


@lru_cache(maxsize=None)
def dff_chain_pair(seed: int = 98):
    """A DFF-heavy loop: PI -> AND -> DFF -> DFF -> NOT feeding back."""
    nl = Netlist(name="chain")
    a = nl.add_pi("a")
    ff1 = nl.add_dff(None, "ff1")
    ff2 = nl.add_dff(ff1, "ff2")
    inv = nl.add_gate(GateType.NOT, [ff2], "inv")
    g = nl.add_gate(GateType.AND, [a, inv], "g")
    nl.set_fanins(ff1, [g])
    nl.add_po(g)
    nl.validate()
    return CircuitGraph(nl), random_workload(nl, seed=seed)


@lru_cache(maxsize=None)
def single_node_pair(seed: int = 11):
    """A lone PI: empty schedules, heads applied straight to h0."""
    nl = Netlist("one")
    nl.add_pi("a")
    nl.validate()
    return CircuitGraph(nl), random_workload(nl, seed=seed)


def mixed_fleet():
    """Mismatched depths and DFF counts, including the corner cases."""
    pairs = [
        build_pair(seed=0, n_dffs=4, n_gates=60),
        shallow_pair(),
        build_pair(seed=1, n_dffs=0, n_gates=45),
        dff_chain_pair(),
        build_pair(seed=2, n_dffs=7, n_gates=25),
    ]
    return [g for g, _ in pairs], [w for _, w in pairs]


@lru_cache(maxsize=None)
def build_subcircuits(family: str, count: int, seed: int):
    """Memoized benchmark-family sub-circuit extraction."""
    from repro.circuit.benchmarks import family_subcircuits

    return family_subcircuits(family, count, seed=seed)


@lru_cache(maxsize=None)
def build_dataset_cached(family: str, count: int, seed: int, cycles: int, sim_seed: int):
    """Memoized quick-scale training dataset over family sub-circuits."""
    from repro.sim.logicsim import SimConfig
    from repro.train.dataset import build_dataset

    circuits = build_subcircuits(family, count, seed)
    return build_dataset(
        circuits, SimConfig(cycles=cycles, streams=64, seed=sim_seed), seed=0
    )


@lru_cache(maxsize=None)
def build_sample(seed: int, n_gates: int = 25, n_pis: int = 4, n_dffs: int = 2):
    """Memoized CircuitSample with synthetic (uniform-random) targets."""
    from repro.train.dataset import CircuitSample

    graph = build_graph(seed, n_pis, n_dffs, n_gates)
    rng = np.random.default_rng(seed)
    return CircuitSample(
        graph=graph,
        workload=random_workload(graph.netlist, seed=seed),
        target_tr=rng.uniform(size=(graph.num_nodes, 2)),
        target_lg=rng.uniform(size=graph.num_nodes),
        name=f"s{seed}",
    )


# ----------------------------------------------------------------------
# fixture handles — tests take the factory and call it with their params
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def circuit_factory():
    """``(seed, n_pis, n_dffs, n_gates, aig) -> CircuitGraph`` (memoized)."""
    return build_graph


@pytest.fixture(scope="session")
def pair_factory():
    """``(...) -> (CircuitGraph, Workload)`` (memoized)."""
    return build_pair


@pytest.fixture(scope="session")
def labels_factory():
    """``(...) -> (CircuitGraph, Workload, SimResult)`` (memoized)."""
    return build_labels


@pytest.fixture(scope="session")
def sample_factory():
    """``(seed, n_gates, ...) -> CircuitSample`` (memoized)."""
    return build_sample


@pytest.fixture(scope="session")
def dataset_factory():
    """``(family, count, seed, cycles, sim_seed) -> dataset`` (memoized)."""
    return build_dataset_cached


@pytest.fixture(scope="session")
def fleet():
    """The mixed-shape five-circuit fleet used by packing/serving tests."""
    return mixed_fleet()

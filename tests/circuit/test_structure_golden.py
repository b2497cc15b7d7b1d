"""Golden digests of every array derived from a netlist's structure.

Labels, plans and packs are all functions of a handful of structural
arrays — the levelization, the :class:`CircuitGraph` edge batches, both
:class:`GraphPlan` schedules and the simulator's evaluation groups — so a
refactor of how a netlist becomes arrays is safe exactly when these do not
move.  The digests below were recorded at the commit *before* the
lowering was unified (PR 18) and cover dtype, shape and bytes of every
array, over generated corpora and hand-built edge cases.

Re-record (only for a deliberate format change, with a ``CACHE_VERSION``
bump) with ``python -m tests.circuit.test_structure_golden``.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.circuit.aig import to_aig
from repro.circuit.aiger import read_aiger, write_aiger
from repro.circuit.benchmarks import FAMILY_STATS, family_subcircuits
from repro.circuit.gates import GateType
from repro.circuit.generate import HierarchicalConfig, hierarchical_netlist
from repro.circuit.graph import CircuitGraph
from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.runtime.plan import plan_for
from repro.sim.logicsim import compile_netlist

from tests.sim._engines import gate_zoo_netlist


class _Digest:
    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def text(self, value) -> None:
        self.h.update(repr(value).encode() + b";")

    def array(self, arr: np.ndarray) -> None:
        self.text((str(arr.dtype), arr.shape))
        self.h.update(np.ascontiguousarray(arr).tobytes())

    def arrays(self, arrs) -> None:
        self.text(len(arrs))
        for arr in arrs:
            self.array(arr)

    def batches(self, batches) -> None:
        self.text(len(batches))
        for b in batches:
            self.arrays([b.nodes, b.src, b.dst_local])


def _levelization(d: _Digest, nl: Netlist) -> None:
    lv = levelize(nl)
    d.array(lv.level)
    d.array(lv.reverse_level)
    for groups in (
        lv.forward_order, lv.reverse_order, lv.comb_forward, lv.comb_reverse
    ):
        d.arrays(groups)


def _compiled(d: _Digest, nl: Netlist) -> None:
    compiled = compile_netlist(nl)
    d.text(compiled.num_nodes)
    d.arrays(
        [compiled.pi_ids, compiled.dff_ids, compiled.dff_src, compiled.comb_ids]
    )
    d.text(len(compiled.ops))
    for op in compiled.ops:
        d.text((op.gate_type.value, op.level))
        d.arrays([op.nodes, op.fanins])


def _graph_and_plan(d: _Digest, nl: Netlist) -> None:
    graph = CircuitGraph(nl)
    d.text((graph.num_nodes, graph.num_levels))
    d.arrays(
        [
            graph.type_index, graph.features, graph.fanin0, graph.fanin1,
            graph.pi_ids, graph.and_ids, graph.not_ids, graph.dff_ids,
            graph.po_ids, graph.dff_src, graph.level, graph.reverse_level,
        ]
    )
    d.batches(graph.forward_batches)
    d.batches(graph.reverse_batches)
    plan = plan_for(nl, cache=False)
    d.text(plan.key)
    for custom in (True, False):
        fwd, rev = plan.schedule(custom)
        d.batches(fwd)
        d.batches(rev)


def structural_digest(nl: Netlist) -> str:
    d = _Digest()
    d.text(nl.fingerprint())
    _levelization(d, nl)
    _compiled(d, nl)
    if nl.is_aig():
        _graph_and_plan(d, nl)
    return d.h.hexdigest()


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def _smoke_design() -> Netlist:
    """benchmarks/e2e's smoke-size hierarchical design (seed 1) after the
    AIGER write/read fixed point."""
    config = HierarchicalConfig(n_clouds=1, cloud_gates=400)
    raw = read_aiger(write_aiger(to_aig(hierarchical_netlist(config, seed=1)).aig))
    for _ in range(8):
        again = read_aiger(write_aiger(raw, binary=True))
        if again.fingerprint() == raw.fingerprint():
            return to_aig(raw).aig
        raw = again
    raise AssertionError("AIGER write/read did not reach a fixed point")


def _constants_at_level_zero() -> Netlist:
    nl = Netlist("consts")
    a = nl.add_pi("a")
    k0 = nl.add_gate(GateType.CONST0, [], "k0")
    k1 = nl.add_gate(GateType.CONST1, [], "k1")
    ff = nl.add_dff(None, "ff")
    g = nl.add_gate(GateType.OR, [a, k0, ff], "g")
    h = nl.add_gate(GateType.MUX, [k1, g, a], "h")
    nl.set_fanins(ff, [h])
    nl.add_po(h)
    return nl


def _no_pi() -> Netlist:
    """Level 0 is empty: only DFFs feed the logic."""
    nl = Netlist("no_pi")
    f0 = nl.add_dff(None, "f0")
    f1 = nl.add_dff(None, "f1")
    n = nl.add_gate(GateType.NOT, [f0], "n")
    g = nl.add_gate(GateType.AND, [n, f1], "g")
    nl.set_fanins(f0, [g])
    nl.set_fanins(f1, [f0])
    nl.add_po(g)
    return nl


def _level_one_only_dffs() -> Netlist:
    """No combinational gate settles at level 1, so the simulator's group
    labels (positions among the *non-empty* comb levels) differ from the
    logic levels."""
    nl = Netlist("dff_level")
    a = nl.add_pi("a")
    unused = nl.add_pi("unused")
    ff = nl.add_dff(None, "ff")
    chain = nl.add_dff(ff, "chain")
    g = nl.add_gate(GateType.AND, [a, ff], "g")
    n = nl.add_gate(GateType.NOT, [g], "n")
    dup = nl.add_gate(GateType.AND, [n, n], "dup")
    nl.set_fanins(ff, [dup])
    nl.add_po(dup)
    nl.add_po(chain)
    del unused
    return nl


def _forward_references() -> Netlist:
    """Gates wired to ids larger than their own."""
    nl = Netlist("fwd_ref")
    top = nl.add_gate(GateType.AND, [], "top")
    mid = nl.add_gate(GateType.NOT, [], "mid")
    ff = nl.add_dff(None, "ff")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    low = nl.add_gate(GateType.AND, [a, b], "low")
    nl.set_fanins(mid, [low])
    nl.set_fanins(top, [mid, ff])
    nl.set_fanins(ff, [top])
    nl.add_po(top)
    nl.add_po(low)
    return nl


def _combinational() -> Netlist:
    nl = Netlist("comb")
    a, b, c = nl.add_pi("a"), nl.add_pi("b"), nl.add_pi("c")
    g = nl.add_gate(GateType.AND, [a, b], "g")
    n = nl.add_gate(GateType.NOT, [c], "n")
    h = nl.add_gate(GateType.AND, [g, n], "h")
    nl.add_po(h)
    nl.add_po(n)
    return nl


@lru_cache(maxsize=None)
def corpus() -> dict[str, Netlist]:
    out: dict[str, Netlist] = {}
    for family in sorted(FAMILY_STATS):
        for k, nl in enumerate(family_subcircuits(family, 3, seed=0)):
            out[f"{family}_{k}"] = nl
        out[f"{family}_raw"] = family_subcircuits(family, 1, seed=5, as_aig=False)[0]
    out["smoke_design"] = _smoke_design()
    out["gate_zoo"] = gate_zoo_netlist()
    for build in (
        _constants_at_level_zero,
        _no_pi,
        _level_one_only_dffs,
        _forward_references,
        _combinational,
    ):
        out[build.__name__.lstrip("_")] = build()
    return out


GOLDEN: dict[str, str] = {
    "iscas89_0": "aa361975cefc7288d1126bd08318ff8e2bac952172b93bb979f46ccddbb7542f",
    "iscas89_1": "d14fb9c1f22b51310102deced2ff1c4f26ed160c247efd4761ef98798a2b1107",
    "iscas89_2": "a2cfcb37234931b383b23999fe5c3546d086ab55ad56bbf9bd6dba1ab7a492be",
    "iscas89_raw": "2e30974ca9fff709cf8e7b4520172f9fd8e187f445112879b1779989bd390987",
    "itc99_0": "30da2f35604f8dcabaff8998c1ba908db733a7effbeee6d46138d46499cd271c",
    "itc99_1": "95c5abe1c8d75191b6fddfa6b4664da62ed7b7db1b9c97a1b5b9a7e81b8cb75a",
    "itc99_2": "c0afe122057ba78cd552e5e1b3d9ba2d47b1af0ecf6d55ca5c1b5fc9f7b0364f",
    "itc99_raw": "1a6c965d32e524b67e3c6f3d837965a0a4bada5420224e6f35cb0b25b2c75917",
    "opencores_0": "ded545b86b1781931b4737cd649b49fc85b89b7bf4f181f0c6f1685eab951348",
    "opencores_1": "e2edc806438eb369b85dafc8a63a33b43f90e9cb31952d5dc7af1317b2550a5b",
    "opencores_2": "61491a84f7e0e20452d3319f59fdca13748dd7bd181427ebd757dd226ae977ce",
    "opencores_raw": "558286b1decd4beeba0f309a332ad0efa88becdd9fea25f311a3f9ee2d074eeb",
    "smoke_design": "77cb03b776877be3c8817dd0929198d661cd1177d1d7b689893ba6af6597102f",
    "gate_zoo": "5b97a909b7a5575534a2859f69dd463d441b93632652a927aedbf8a794b0da83",
    "constants_at_level_zero": "fbba9811204dc89c78681fec97a9fea698b4d49b7a03079f8e52d2e29b18db66",
    "no_pi": "49fe239eb1cb0ffe142bef2e22315264211834517ada7b015a1cfba6372fb7de",
    "level_one_only_dffs": "34efe1acbbfd9c5ff30eedbdef26560122eeb7d8f8e019aa326b4be5e9072bc9",
    "forward_references": "906372830520a4135463fd2e3429f9ac5f3ba0dde1113f20044baa66eb8047e1",
    "combinational": "c87bd4fcc3c5073bd842d737514c268ea007d709fbb85b631e33a92a3025a24e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_structural_arrays_pinned(name):
    assert structural_digest(corpus()[name]) == GOLDEN[name]


def test_corpus_fully_pinned():
    assert sorted(corpus()) == sorted(GOLDEN)


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for name, nl in corpus().items():
        print(f'    "{name}": "{structural_digest(nl)}",')
    print("}")

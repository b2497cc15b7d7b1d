"""Tests for AIG lowering (repro.circuit.aig).

The load-bearing property: lowering must be *functionally exact* — every
original signal equals its mapped AIG fanout gate on every input pattern,
cycle by cycle.  Verified exhaustively for combinational circuits and via
bit-parallel simulation for sequential ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import to_aig
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import Workload

from tests.sim.reference import CycleSimulator


def exhaustive_outputs(nl: Netlist, nodes: list[int]) -> np.ndarray:
    """Evaluate a *combinational* netlist on all input assignments."""
    pis = nl.pis
    n_patterns = 2 ** len(pis)
    assert n_patterns <= 64
    sim = CycleSimulator(nl, streams=64)
    rows = np.arange(n_patterns, dtype=np.uint64)
    pi_words = np.zeros((len(pis), 1), dtype=np.uint64)
    for k in range(len(pis)):
        bits = (rows >> np.uint64(k)) & np.uint64(1)
        word = np.uint64(0)
        for i, b in enumerate(bits):
            word |= np.uint64(int(b)) << np.uint64(i)
        pi_words[k, 0] = word
    values = sim.step(pi_words)
    mask = (np.uint64(1) << np.uint64(n_patterns)) - np.uint64(1) \
        if n_patterns < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.array([values[v, 0] & mask for v in nodes], dtype=np.uint64)


COMB_GATES = [
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
    GateType.MUX,
]


class TestSingleGateLowering:
    @pytest.mark.parametrize("gate", COMB_GATES)
    def test_gate_equivalence_exhaustive(self, gate):
        arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX: 3}.get(gate, 2)
        nl = Netlist(f"single_{gate.value}")
        pis = [nl.add_pi(f"i{k}") for k in range(arity)]
        g = nl.add_gate(gate, pis, "out")
        nl.add_po(g)
        nl.validate()
        mapping = to_aig(nl)
        orig = exhaustive_outputs(nl, [g])
        new = exhaustive_outputs(mapping.aig, [mapping.fanout_of[g]])
        assert orig[0] == new[0], gate

    @pytest.mark.parametrize("gate", [GateType.AND, GateType.OR, GateType.XOR])
    @pytest.mark.parametrize("arity", [3, 4, 5])
    def test_nary_tree_equivalence(self, gate, arity):
        nl = Netlist("nary")
        pis = [nl.add_pi(f"i{k}") for k in range(arity)]
        g = nl.add_gate(gate, pis, "out")
        nl.add_po(g)
        mapping = to_aig(nl)
        assert mapping.aig.is_aig()
        orig = exhaustive_outputs(nl, [g])
        new = exhaustive_outputs(mapping.aig, [mapping.fanout_of[g]])
        assert orig[0] == new[0]

    def test_constants(self):
        nl = Netlist("consts")
        nl.add_pi("a")
        c0 = nl.add_gate(GateType.CONST0, [], "zero")
        c1 = nl.add_gate(GateType.CONST1, [], "one")
        nl.add_po(c0)
        nl.add_po(c1)
        mapping = to_aig(nl)
        outs = exhaustive_outputs(
            mapping.aig, [mapping.fanout_of[c0], mapping.fanout_of[c1]]
        )
        assert outs[0] == 0
        assert outs[1] == 3  # both patterns give 1


class TestStructure:
    def test_result_is_aig(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=5, n_dffs=3, n_gates=30), seed=3
        )
        mapping = to_aig(nl)
        assert mapping.aig.is_aig()
        mapping.aig.validate()

    def test_idempotent_on_aig(self):
        nl = random_sequential_netlist(
            GeneratorConfig(
                n_pis=4,
                n_dffs=2,
                n_gates=20,
                gate_mix={GateType.AND: 0.6, GateType.NOT: 0.4},
                max_fanin=2,
            ),
            seed=5,
        )
        if not nl.is_aig():
            pytest.skip("generator emitted an n-ary AND")
        mapping = to_aig(nl)
        assert len(mapping.aig) == len(nl)

    def test_every_original_node_mapped(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25), seed=9
        )
        mapping = to_aig(nl)
        assert set(mapping.fanout_of.keys()) == set(nl.nodes())

    def test_pos_preserved(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25, n_pos=3), seed=2
        )
        mapping = to_aig(nl)
        assert len(mapping.aig.pos) == len(nl.pos)

    def test_dff_count_preserved(self):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=7, n_gates=25), seed=4
        )
        mapping = to_aig(nl)
        assert len(mapping.aig.dffs) == 7


class TestSequentialEquivalence:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_simulation_statistics_identical(self, seed):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=5, n_dffs=5, n_gates=45), seed=seed
        )
        mapping = to_aig(nl)
        wl = Workload(np.linspace(0.1, 0.9, len(nl.pis)), seed=seed)
        cfg = SimConfig(cycles=80, streams=64, seed=seed)
        r_orig = simulate(nl, wl, cfg)
        r_aig = simulate(mapping.aig, wl, cfg)
        for old, new in mapping.fanout_of.items():
            assert r_orig.logic_prob[old] == pytest.approx(
                r_aig.logic_prob[new], abs=1e-12
            )
            assert r_orig.tr01_prob[old] == pytest.approx(
                r_aig.tr01_prob[new], abs=1e-12
            )
            assert r_orig.tr10_prob[old] == pytest.approx(
                r_aig.tr10_prob[new], abs=1e-12
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_circuits_equivalent(self, seed):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=20), seed=seed
        )
        mapping = to_aig(nl)
        wl = Workload(np.full(len(nl.pis), 0.5), seed=seed)
        cfg = SimConfig(cycles=24, streams=64, seed=seed, warmup=2)
        r_orig = simulate(nl, wl, cfg)
        r_aig = simulate(mapping.aig, wl, cfg)
        for old, new in mapping.fanout_of.items():
            assert r_orig.logic_prob[old] == r_aig.logic_prob[new]

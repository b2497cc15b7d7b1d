"""Deep and degenerate topologies through the full compile/execute stack.

Levelize, SimPlan (resident and chunked) and GraphPlan all iterate per
logic level; a 10k-level combinational chain is the adversarial depth
case (10k batches of one node each), and an all-DFF netlist is the
no-combinational-levels edge.  These are cheap in nodes but lethal to
any recursion-based or per-level-allocating implementation.
"""

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.levelize import levelize
from repro.circuit.netlist import Netlist
from repro.memory import MemoryBudget
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import Workload

from tests.sim import reference

CHAIN_DEPTH = 10_000


@pytest.fixture(scope="module")
def deep_chain():
    """A NOT-chain CHAIN_DEPTH levels deep, closed by one DFF."""
    nl = Netlist("chain")
    a = nl.add_pi("a")
    ff = nl.add_dff(None, "ff")
    prev = nl.add_gate(GateType.XOR, [a, ff], "g0")
    for k in range(1, CHAIN_DEPTH):
        prev = nl.add_gate(GateType.NOT, [prev], f"g{k}")
    nl.set_fanins(ff, [prev])
    nl.add_po(prev)
    nl.validate()
    return nl


@pytest.fixture(scope="module")
def all_dff():
    """A 5000-DFF rotating register file with no combinational gates."""
    nl = Netlist("dffs")
    pi = nl.add_pi("a")
    ffs = [nl.add_dff(None, f"f{k}") for k in range(5000)]
    nl.set_fanins(ffs[0], [pi])
    for k in range(1, 5000):
        nl.set_fanins(ffs[k], [ffs[k - 1]])
    nl.add_po(ffs[-1])
    nl.validate()
    return nl


class TestLevelize:
    def test_chain_depth(self, deep_chain):
        lev = levelize(deep_chain)
        assert len(lev.comb_forward) == CHAIN_DEPTH

    def test_all_dff_has_no_comb_levels(self, all_dff):
        assert levelize(all_dff).comb_forward == []


class TestSimulation:
    CFG = SimConfig(cycles=8, streams=64, seed=2)

    def test_chain_engines_agree(self, deep_chain):
        wl = Workload(np.array([0.5]), seed=1)
        ref = reference.simulate(deep_chain, wl, self.CFG)
        blk = simulate(deep_chain, wl, self.CFG)
        par = simulate(
            deep_chain, wl, self.CFG, engine="partitioned",
            budget=MemoryBudget(plan_bytes=1, history_bytes=1),
        )
        bud = simulate(
            deep_chain, wl, self.CFG,
            budget=MemoryBudget(plan_bytes=4096, history_bytes=8192),
        )
        for got in (blk, par, bud):
            assert np.array_equal(ref.logic_prob, got.logic_prob)
            assert np.array_equal(ref.tr01_prob, got.tr01_prob)

    def test_chain_semantics(self, deep_chain):
        # At p(a)=0 the chain is pure inversion of the feedback bit: the
        # PO toggles every cycle once the XOR/NOT pipeline settles.
        wl = Workload(np.array([0.0]), seed=1)
        res = simulate(deep_chain, wl, SimConfig(cycles=16, streams=64, warmup=2))
        po = deep_chain.pos[0]
        assert res.toggle_rate[po] == pytest.approx(1.0)

    def test_all_dff_engines_agree(self, all_dff):
        wl = Workload(np.array([0.5]), seed=3)
        ref = reference.simulate(all_dff, wl, self.CFG)
        blk = simulate(all_dff, wl, self.CFG)
        par = simulate(
            all_dff, wl, self.CFG, engine="partitioned",
            budget=MemoryBudget(plan_bytes=1, history_bytes=1),
        )
        for got in (blk, par):
            assert np.array_equal(ref.logic_prob, got.logic_prob)
            assert np.array_equal(ref.tr01_prob, got.tr01_prob)
            assert np.array_equal(ref.tr10_prob, got.tr10_prob)


class TestGraphPlan:
    def test_deep_chain_plan(self, deep_chain):
        from repro.circuit.aig import to_aig
        from repro.runtime.plan import plan_for

        aig = to_aig(deep_chain).aig
        plan = plan_for(aig, cache=False)
        fwd, rev = plan.schedule()
        assert len(fwd) >= CHAIN_DEPTH

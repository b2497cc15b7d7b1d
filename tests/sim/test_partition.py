"""Differential tests of memory budgets on the block executor.

The contract under test is absolute: a budget changes how much memory the
execution keeps resident (chunked gather arena, history depth), never a
single result bit.  Every test here compares against the unbudgeted
executor or the per-cycle reference with ``np.array_equal`` (exact
float64 / uint64 equality), not tolerances.

``engine="partitioned"`` named the removed partition-and-stitch engine;
``simulate`` still accepts it as an alias of the block executor, and the
``TestPartitionedEngine`` cases keep it honest under byte budgets.
"""

import numpy as np
import pytest

from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.memory import MemoryBudget
from repro.sim.bitvec import words_for
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig, SimPlan, compile_netlist, simulate
from repro.sim.workload import Workload

from tests.sim import reference


@pytest.fixture(scope="module")
def circuit():
    return random_sequential_netlist(
        GeneratorConfig(n_pis=8, n_dffs=6, n_gates=300, n_pos=4), seed=21
    )


@pytest.fixture(scope="module")
def workload():
    return Workload(np.full(8, 0.5), seed=17)


CFG = SimConfig(cycles=48, streams=128, warmup=4, seed=3, init_state="random")


def assert_same_sim(a, b):
    assert np.array_equal(a.logic_prob, b.logic_prob)
    assert np.array_equal(a.tr01_prob, b.tr01_prob)
    assert np.array_equal(a.tr10_prob, b.tr10_prob)


class TestMemoryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(plan_bytes=0)
        with pytest.raises(ValueError):
            MemoryBudget(history_bytes=-1)
        assert MemoryBudget.unlimited().allows_plan(1 << 60)

    def test_cap_count_floors_at_one(self):
        b = MemoryBudget(history_bytes=100)
        assert b.cap_count(1000, want=64) == 1
        assert b.cap_count(10, want=64) == 10
        assert MemoryBudget().cap_count(10, want=64) == 64


def assert_runs_cover_groups(plan):
    """Every group's runs partition its gates in order, and each run's
    kernel output is exactly its gates' rows of the plan-order value
    buffer: writing row ``i`` of the output writes gate ``i``'s row."""
    runs = {}
    for step in plan.steps:
        for gates in step.gates:
            runs.setdefault(gates.op, []).append(gates)
    assert sorted(runs) == list(range(len(plan.compiled.ops)))
    for g, op in enumerate(plan.compiled.ops):
        covered = []
        for run in runs[g]:
            nodes = op.nodes[run.sl or slice(None)]
            marks = np.arange(1, nodes.size + 1, dtype=np.uint64)
            plan.values[:] = 0
            run.out[:] = marks[:, None]
            assert np.array_equal(plan.values[plan.position[nodes], 0], marks)
            assert np.count_nonzero(plan.values[:, 0]) == nodes.size
            covered.append(nodes)
        assert np.array_equal(np.concatenate(covered), op.nodes)


class TestStreamedSimPlan:
    def test_streamed_plan_shrinks_resident_bytes(self, circuit):
        compiled = compile_netlist(circuit)
        words = 2
        full = SimPlan(compiled, words)
        tight = SimPlan(
            compiled,
            words,
            budget=MemoryBudget(plan_bytes=256, history_bytes=20_000),
        )
        assert tight.streamed and not full.streamed
        assert tight.resident_bytes() < full.resident_bytes()
        assert tight.arena.nbytes <= 256 < full.arena.nbytes
        # Resident: one step per level, whole groups, the arena sized to
        # the widest level.
        levels = {op.level for op in compiled.ops if op.fanins.size}
        assert len(full.steps) - full.const_steps == len(levels)
        for step in full.steps[full.const_steps :]:
            assert len({compiled.ops[g.op].level for g in step.gates}) == 1
            gathered = sum(g.in_buf.size for g in step.gates) // words
            assert step.flat.size == step.gather.shape[0] == gathered
        assert full.arena.shape[0] == max(s.flat.size for s in full.steps)
        assert all(g.sl is None for s in full.steps for g in s.gates)
        for plan in (full, tight):
            assert_runs_cover_groups(plan)

    def test_one_byte_budget_means_one_gate_chunks(self, circuit):
        """The arena never drops below one gate of the widest group, so a
        one-byte budget evaluates that group gate by gate (narrower
        groups fit a few gates in the same rows) over a one-cycle history."""
        compiled = compile_netlist(circuit)
        tight = SimPlan(
            compiled, 2, budget=MemoryBudget(plan_bytes=1, history_bytes=1)
        )
        assert tight.streamed and tight.block_cycles == 1
        widest = max(op.fanins.shape[0] for op in compiled.ops)
        assert tight.resident_bytes() == (
            tight.history.nbytes
            + tight.state_buf.nbytes
            + tight.values.nbytes
            + widest * 2 * 8
        )
        gathering = tight.steps[tight.const_steps :]
        assert all(0 < s.flat.size <= widest for s in gathering)
        for step in gathering:
            # A step is whole gates of one level.
            assert len({compiled.ops[g.op].level for g in step.gates}) == 1
            for g in step.gates:
                arity = compiled.ops[g.op].fanins.shape[0]
                if arity == widest:
                    assert g.out.shape[0] == 1
        assert_runs_cover_groups(tight)

    def test_block_budget_bitwise(self, circuit, workload):
        budget = MemoryBudget(plan_bytes=256, history_bytes=20_000)
        resident = SimPlan(compile_netlist(circuit), words_for(CFG.streams))
        assert budget.plan_bytes < resident.arena.nbytes  # a real bound
        ref = simulate(circuit, workload, CFG)
        got = simulate(circuit, workload, CFG, budget=budget)
        assert_same_sim(ref, got)

    def test_history_only_budget_bitwise(self, circuit, workload):
        ref = reference.simulate(circuit, workload, CFG)
        got = simulate(
            circuit,
            workload,
            CFG,
            budget=MemoryBudget(history_bytes=circuit.num_nodes * 2 * 8 * 2),
        )
        assert_same_sim(ref, got)


class TestPartitionedEngine:
    """The ``"partitioned"`` alias: the block executor under a budget."""

    @pytest.mark.parametrize("plan_bytes", [16, 64, 10_000])
    def test_fault_free_bitwise(self, circuit, workload, plan_bytes):
        ref = reference.simulate(circuit, workload, CFG)
        got = simulate(
            circuit,
            workload,
            CFG,
            engine="partitioned",
            budget=MemoryBudget(plan_bytes=plan_bytes),
        )
        assert_same_sim(ref, got)

    def test_faults_bitwise_across_engines(self, circuit, workload):
        fcfg = FaultConfig(fault_rate=0.01, episode_cycles=20, seed=5)
        ref = reference.simulate_with_faults(circuit, workload, CFG, fcfg)
        blk = simulate_with_faults(circuit, workload, CFG, fcfg)
        par = simulate_with_faults(
            circuit, workload, CFG, fcfg,
            budget=MemoryBudget(plan_bytes=48, history_bytes=1),
        )
        for got in (blk, par):
            assert np.array_equal(ref.err01, got.err01)
            assert np.array_equal(ref.err10, got.err10)
            assert np.array_equal(ref.observed0, got.observed0)
            assert np.array_equal(ref.observed1, got.observed1)
            assert ref.reliability == got.reliability

    def test_fault_run_bounds_one_doubled_plan(self, circuit, workload):
        """Fault labelling under a budget builds one simulator and one plan
        over the doubled word axis, so the budget bounds both machines'
        window and arena once — plus the injector's raw stream windows,
        which the history bound caps separately.  (The budget is roomy
        enough that the one-gate / one-cycle floors stay out of the sum;
        DFF staging and the plan-order value buffer are per-node storage
        no budget cuts.)"""
        import repro.sim.pack as pack_mod

        budget = MemoryBudget(plan_bytes=512, history_bytes=200_000)
        fcfg = FaultConfig(fault_rate=0.01, episode_cycles=20, seed=5)
        built = {"sim": [], "plan": [], "injector": []}

        def recording(cls, kind):
            class Recorded(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built[kind].append(self)

            return Recorded

        class PeakInjector(pack_mod._PackedInjector):
            raw_peak = 0

            def _prepare(self, start):
                super()._prepare(start)
                self.raw_peak = max(self.raw_peak, self.raw_words)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pack_mod, "Simulator", recording(pack_mod.Simulator, "sim"))
            patch.setattr(pack_mod, "SimPlan", recording(pack_mod.SimPlan, "plan"))
            patch.setattr(
                pack_mod, "_PackedInjector", recording(PeakInjector, "injector")
            )
            got = simulate_with_faults(circuit, workload, CFG, fcfg, budget=budget)
        (sim,), (plan,), (injector,) = built["sim"], built["plan"], built["injector"]
        words = words_for(CFG.streams)
        raw_bytes = 8 * injector.raw_peak
        assert sim.words == plan.words == 2 * words
        assert injector.words == words
        assert plan.streamed and plan.block_cycles > 1 and injector.chunk_cycles > 1
        assert plan.history.nbytes <= budget.history_bytes
        assert 0 < raw_bytes <= budget.history_bytes
        assert plan.arena.nbytes <= budget.plan_bytes
        assert (
            plan.resident_bytes() + raw_bytes
            <= budget.plan_bytes
            + 2 * budget.history_bytes
            + plan.state_buf.nbytes
            + plan.values.nbytes
        )
        ref = reference.simulate_with_faults(circuit, workload, CFG, fcfg)
        assert np.array_equal(ref.err01, got.err01)
        assert np.array_equal(ref.err10, got.err10)
        assert ref.reliability == got.reliability

    def test_combinational_only_netlist(self):
        from repro.circuit.netlist import Netlist
        from repro.circuit.gates import GateType

        nl = Netlist("comb")
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        x = nl.add_gate(GateType.XOR, [a, b], "x")
        nl.add_po(x)
        nl.validate()
        wl = Workload(np.array([0.5, 0.5]), seed=1)
        cfg = SimConfig(cycles=32, streams=64)
        assert_same_sim(
            reference.simulate(nl, wl, cfg),
            simulate(
                nl, wl, cfg, engine="partitioned",
                budget=MemoryBudget(plan_bytes=1),
            ),
        )

    def test_unknown_engine_rejected(self, circuit, workload):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(circuit, workload, CFG, engine="banded")

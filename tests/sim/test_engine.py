"""Differential tests: block-stepped engine vs the per-cycle reference.

The block engine's only correctness claim is *bitwise equality* with the
per-cycle loop under every parameterization — streams, warmup, block
sizes that do and don't divide the cycle count, episode splits, fault
rates, constants under injection.  Hypothesis drives the sweeps so new
engine work keeps being fuzzed against the pinned reference.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.gates import (
    FANIN_ARITY,
    GateType,
    eval_gate,
    eval_gate_into,
    gate_kernel,
)
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist
from repro.memory import MemoryBudget
from repro.sim.bitvec import words_for
from repro.sim.faults import FaultConfig, _episode_schedule, simulate_with_faults
from repro.sim.logicsim import (
    ActivityCounter,
    CompiledCircuit,
    SimConfig,
    SimPlan,
    Simulator,
    _LevelOp,
    compile_netlist,
    simulate,
)
from repro.sim.pack import _PackedInjector, _run_packed_faults, pack_circuits
from repro.sim.workload import PatternSource, Workload, random_workload

from tests.sim import reference
from tests.sim._engines import gate_zoo_netlist, zoo_workload


def assert_results_equal(a, b):
    assert np.array_equal(a.logic_prob, b.logic_prob)
    assert np.array_equal(a.tr01_prob, b.tr01_prob)
    assert np.array_equal(a.tr10_prob, b.tr10_prob)
    assert a.cycles == b.cycles and a.streams == b.streams


def assert_fault_results_equal(a, b):
    assert np.array_equal(a.err01, b.err01)
    assert np.array_equal(a.err10, b.err10)
    assert np.array_equal(a.observed0, b.observed0)
    assert np.array_equal(a.observed1, b.observed1)
    assert a.reliability == b.reliability


class TestBlockStimulus:
    def test_next_block_matches_per_cycle_draws(self):
        wl = Workload(np.array([0.2, 0.5, 0.9]), seed=3)
        a = PatternSource(wl, streams=130)
        b = PatternSource(wl, streams=130)
        block = b.next_block(9)
        stacked = np.stack([a.next_cycle() for _ in range(9)])
        assert np.array_equal(block, stacked)

    def test_chunking_is_invisible(self):
        wl = Workload(np.array([0.4, 0.6]), seed=8)
        a = PatternSource(wl, streams=64)
        b = PatternSource(wl, streams=64)
        whole = a.next_block(10)
        parts = np.concatenate(
            [b.next_block(3), b.next_block(1), b.next_block(6)]
        )
        assert np.array_equal(whole, parts)
        # Continuation after differently-chunked prefixes stays in sync.
        assert np.array_equal(a.next_cycle(), b.next_cycle())


class TestGateKernels:
    """eval_gate_into vs eval_gate on every combinational gate kind."""

    CASES = [
        (gt, arity)
        for gt in GateType
        if gt not in (GateType.PI, GateType.DFF)
        for arity in (
            [FANIN_ARITY[gt]] if FANIN_ARITY[gt] is not None else [2, 3, 5]
        )
    ]

    @pytest.mark.parametrize("gate_type,arity", CASES)
    def test_matches_eval_gate(self, gate_type, arity):
        rng = np.random.default_rng(hash((gate_type.value, arity)) % 2**32)
        inputs = rng.integers(0, 2**64, size=(arity, 6, 2), dtype=np.uint64)
        out = np.empty((6, 2), dtype=np.uint64)
        eval_gate_into(gate_type, inputs.copy(), out)
        if gate_type is GateType.CONST0:
            assert not out.any()
        elif gate_type is GateType.CONST1:
            assert (out == np.uint64(0xFFFFFFFFFFFFFFFF)).all()
        else:
            expected = eval_gate(gate_type, list(inputs))
            assert np.array_equal(out, expected)

    def test_wrong_arity_rejected(self):
        out = np.empty((1, 1), dtype=np.uint64)
        one = np.zeros((1, 1, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            eval_gate_into(GateType.AND, one, out)
        with pytest.raises(ValueError):
            eval_gate_into(GateType.PI, one, out)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    @pytest.mark.parametrize("gate_type", list(GateType))
    def test_kernel_table_every_kind_and_arity(self, gate_type, arity):
        """One table behind both entry points: a valid (kind, arity) gives
        ``eval_gate``'s bits, an invalid one the same ``ValueError`` text
        from ``gate_kernel`` and ``eval_gate_into`` (and from ``eval_gate``
        wherever it knows the gate)."""
        rng = np.random.default_rng(arity)
        inputs = rng.integers(0, 2**64, size=(arity, 5, 2), dtype=np.uint64)
        out = np.empty((5, 2), dtype=np.uint64)
        expected = FANIN_ARITY[gate_type]
        evaluable = gate_type not in (GateType.PI, GateType.DFF)
        valid = evaluable and (arity >= 2 if expected is None else arity == expected)
        if valid:
            gate_kernel(gate_type, arity)(inputs.copy(), out)
            assert np.array_equal(out, eval_gate(gate_type, list(inputs)))
            return
        with pytest.raises(ValueError) as via_table:
            gate_kernel(gate_type, arity)
        with pytest.raises(ValueError) as via_into:
            eval_gate_into(gate_type, inputs, out)
        assert str(via_table.value) == str(via_into.value)
        if not evaluable:
            assert "not combinationally evaluable" in str(via_table.value)
        elif expected != 0:  # eval_gate rejects constants outright
            with pytest.raises(ValueError) as via_eval:
                eval_gate(gate_type, list(inputs))
            assert str(via_table.value) == str(via_eval.value)

    def test_bad_arity_fails_at_plan_construction(self):
        """The cycle loop never validates: a group whose fanin count its
        gate does not allow is refused when the plan binds its kernel."""
        nodes = np.array([1], dtype=np.int64)
        compiled = CompiledCircuit(
            netlist=None,
            num_nodes=2,
            ops=[_LevelOp(GateType.AND, nodes, np.zeros((1, 1), dtype=np.int64))],
            pi_ids=np.array([0], dtype=np.int64),
            dff_ids=np.empty(0, dtype=np.int64),
            dff_src=np.empty(0, dtype=np.int64),
            comb_ids=nodes,
        )
        out = np.empty((1, 1), dtype=np.uint64)
        with pytest.raises(ValueError) as via_into:
            eval_gate_into(GateType.AND, np.zeros((1, 1, 1), dtype=np.uint64), out)
        with pytest.raises(ValueError) as via_plan:
            SimPlan(compiled, 1)
        assert str(via_plan.value) == str(via_into.value)
        assert "requires >= 2 fanins, got 1" in str(via_plan.value)

    def test_node_in_two_places_fails_at_plan_construction(self):
        """Plan positions are a permutation: a node that is a PI and a
        gate output at once has no single value slice."""
        both = np.array([0], dtype=np.int64)
        compiled = CompiledCircuit(
            netlist=None,
            num_nodes=1,
            ops=[_LevelOp(GateType.NOT, both, both[None, :])],
            pi_ids=both,
            dff_ids=np.empty(0, dtype=np.int64),
            dff_src=np.empty(0, dtype=np.int64),
            comb_ids=both,
        )
        with pytest.raises(ValueError, match="must be disjoint"):
            SimPlan(compiled, 1)


class TestFaultFreeDifferential:
    def test_zoo_covers_all_gates_bitwise(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        cfg = SimConfig(cycles=40, streams=128, warmup=3, seed=2)
        ref = reference.simulate(nl, wl, cfg)
        for bc in (1, 4, 40, None):
            assert_results_equal(
                ref, simulate(nl, wl, cfg, block_cycles=bc)
            )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        streams=st.sampled_from([1, 64, 96, 200]),
        warmup=st.integers(0, 9),
        cycles=st.integers(2, 70),
        block_cycles=st.sampled_from([1, 2, 5, 17, 64]),
        init_state=st.sampled_from(["zero", "random"]),
    )
    def test_property_block_equals_cycle(
        self, seed, streams, warmup, cycles, block_cycles, init_state
    ):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=30), seed=seed
        )
        wl = random_workload(nl, seed=seed + 1)
        cfg = SimConfig(
            cycles=cycles,
            streams=streams,
            warmup=warmup,
            seed=seed,
            init_state=init_state,
        )
        ref = reference.simulate(nl, wl, cfg)
        got = simulate(nl, wl, cfg, block_cycles=block_cycles)
        assert_results_equal(ref, got)


class TestFaultDifferential:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cycles=st.integers(2, 90),
        episode_cycles=st.sampled_from([2, 10, 33, 100]),
        warmup=st.integers(0, 6),
        fault_rate=st.sampled_from([0.0, 5e-4, 0.02, 0.3]),
        block_cycles=st.sampled_from([1, 6, 64]),
    )
    def test_property_block_equals_cycle(
        self, seed, cycles, episode_cycles, warmup, fault_rate, block_cycles
    ):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25), seed=seed
        )
        wl = random_workload(nl, seed=seed + 7)
        cfg = SimConfig(cycles=cycles, streams=70, warmup=warmup, seed=seed)
        fc = FaultConfig(
            fault_rate=fault_rate, episode_cycles=episode_cycles, seed=seed + 2
        )
        ref = reference.simulate_with_faults(nl, wl, cfg, fc)
        got = simulate_with_faults(nl, wl, cfg, fc, block_cycles=block_cycles)
        assert_fault_results_equal(ref, got)

    def test_zoo_constants_under_injection(self):
        """Constant gates must be re-materialized per cycle when a fault
        hook can flip them — the zoo pins that path."""
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        cfg = SimConfig(cycles=50, streams=64, warmup=2, seed=1)
        fc = FaultConfig(fault_rate=0.2, episode_cycles=25, seed=3)
        ref = reference.simulate_with_faults(nl, wl, cfg, fc)
        got = simulate_with_faults(nl, wl, cfg, fc)
        assert_fault_results_equal(ref, got)

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(0.0, 0.5),
        seed=st.integers(0, 1000),
        words=st.integers(1, 3),
        one_cycle_chunks=st.booleans(),
    )
    def test_property_batched_injector_draws_identical(
        self, rate, seed, words, one_cycle_chunks
    ):
        """The executor's bulk-drawn masks equal the reference injector's
        per-(cycle, group) draws — the invariant cached fault labels
        depend on — whether one chunk covers the run or (under a one-byte
        history budget) every cycle is a chunk boundary."""
        packed = pack_circuits([gate_zoo_netlist()], cache=False)
        config = FaultConfig(fault_rate=rate, per_pattern=False, seed=seed)
        budget = MemoryBudget(history_bytes=1) if one_cycle_chunks else None
        bulk = _PackedInjector(packed, config, words, 12, budget)
        assert not one_cycle_chunks or bulk.chunk_cycles == 1
        ref = reference.FaultInjector(rate, words, np.random.default_rng(seed))
        for cycle in range(12):
            (hits,) = bulk.block(cycle, 1)
            for g, op in enumerate(packed.compiled.ops):
                want = ref.mask(cycle, op.nodes)
                # The sparse index holds exactly the non-zero masks.
                assert (g in hits) == bool(want.any())
                if g in hits:
                    assert np.array_equal(want, hits[g])


def latch_only_netlist() -> Netlist:
    """A member without a single combinational gate: PI -> DFF -> PO."""
    nl = Netlist("latch")
    a = nl.add_pi("a")
    d = nl.add_dff(a, "d")
    nl.add_po(d)
    nl.validate()
    return nl


def lockstep_members(k: int, seed: int):
    """``k`` heterogeneous (netlist, workload) members: a random one, then
    the gate zoo (both constants drive logic), then the latch-only one."""
    nl = random_sequential_netlist(
        GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25), seed=seed
    )
    members = [
        (nl, random_workload(nl, seed=seed + 7)),
        (gate_zoo_netlist(), zoo_workload(seed=seed + 1)),
        (latch_only_netlist(), Workload(np.array([0.4]), seed=seed + 2)),
    ]
    return members[:k]


def golden_reference_trace(nl, wl, cfg, fc):
    """Fault-free settled values of every lockstep cycle, from the
    per-cycle reference: per episode a reset, one continuing stimulus."""
    sim = reference.CycleSimulator(nl, streams=cfg.streams)
    source = PatternSource(wl, streams=cfg.streams)
    trace = []
    cycle = 0
    for episode, observe in enumerate(_episode_schedule(cfg, fc)):
        sim.reset(cfg.init_state, np.random.default_rng(cfg.seed + episode))
        for _ in range(cfg.warmup + observe):
            trace.append(sim.step(source.next_cycle(), cycle).copy())
            sim.latch()
            cycle += 1
    return np.stack(trace)


#: Per-cycle flip rates of the lockstep sweeps: none, the paper's
#: effective rate, a dense one, and the injector's k = 1 ceiling.
LOCKSTEP_RATES = [0.0, 5e-6, 1e-3, 0.5]


class TestLockstepExecutor:
    """The fault path as one pass over a doubled word axis: bitwise equal
    to the per-cycle two-machine oracle, golden half equal to a fault-free
    run, flips applied exactly where the injector's index says."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        streams=st.sampled_from([64, 128, 200]),
        init_state=st.sampled_from(["zero", "random"]),
        rate=st.sampled_from(LOCKSTEP_RATES),
        cycles=st.integers(2, 40),
        episode_cycles=st.sampled_from([2, 7, 16]),
        warmup=st.integers(0, 4),
        block_cycles=st.sampled_from([1, 3, None]),
        one_byte_budget=st.booleans(),
        members=st.sampled_from([1, 3]),
    )
    def test_property_lockstep_equals_cycle_oracle(
        self, seed, streams, init_state, rate, cycles, episode_cycles,
        warmup, block_cycles, one_byte_budget, members,
    ):
        picked = lockstep_members(members, seed)
        cfg = SimConfig(
            cycles=cycles, streams=streams, warmup=warmup, seed=seed,
            init_state=init_state,
        )
        fc = FaultConfig(
            fault_rate=rate, per_pattern=False,
            episode_cycles=episode_cycles, seed=seed + 2,
        )
        # One byte: a one-cycle window and gate-by-gate chunks, so every
        # chunk must pick its own rows of its group's mask.
        budget = (
            MemoryBudget(plan_bytes=1, history_bytes=1)
            if one_byte_budget
            else None
        )
        packed = pack_circuits([nl for nl, _ in picked], cache=False)
        words = words_for(streams)
        blocks = []
        run_block = Simulator.run_block

        def spy(sim, pi_block, plan, *, history=None, flips=None):
            assert sim.words == plan.words == 2 * words
            assert len(flips) == len(pi_block)
            values = run_block(sim, pi_block, plan, history=history, flips=flips)
            blocks.append(history.copy())
            return values

        with mock.patch.object(Simulator, "run_block", spy):
            got = _run_packed_faults(
                packed, [wl for _, wl in picked], cfg, fc, block_cycles, budget,
            )
        history = np.concatenate(blocks)
        for k, (nl, wl) in enumerate(picked):
            ref = reference.simulate_with_faults(nl, wl, cfg, fc)
            assert_fault_results_equal(ref, got[k])
            rows = packed.member_slice(k)
            assert np.array_equal(
                history[:, rows, :words], golden_reference_trace(nl, wl, cfg, fc)
            )
            if rate == 0.0:
                assert np.array_equal(
                    history[:, rows, :words], history[:, rows, words:]
                )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        rate=st.sampled_from(LOCKSTEP_RATES),
        words=st.sampled_from([1, 2, 4]),
        one_cycle_chunks=st.booleans(),
        members=st.sampled_from([1, 3]),
    )
    def test_property_sparse_index_is_exactly_the_nonzero_masks(
        self, seed, rate, words, one_cycle_chunks, members
    ):
        """Per cycle, ``block()`` holds exactly the union groups where a
        standalone injector per member draws a non-zero mask, each with
        the union of those members' masks over the group's rows."""
        packed = pack_circuits(
            [nl for nl, _ in lockstep_members(members, seed)], cache=False
        )
        config = FaultConfig(fault_rate=rate, per_pattern=False, seed=seed)
        budget = MemoryBudget(history_bytes=1) if one_cycle_chunks else None
        cycles = 9
        bulk = _PackedInjector(packed, config, words, cycles, budget)
        want = np.zeros((cycles, packed.num_nodes, words), dtype=np.uint64)
        for member, targets in zip(packed.members, packed.shifted_ops):
            ref = reference.FaultInjector(rate, words, np.random.default_rng(seed))
            for cycle in range(cycles):
                for op, rows in zip(member.ops, targets):
                    want[cycle, rows] = ref.mask(cycle, op.nodes)
        ops = packed.compiled.ops
        for cycle, hits in enumerate(bulk.block(0, cycles)):
            assert set(hits) == {
                g for g, op in enumerate(ops) if want[cycle, op.nodes].any()
            }
            for g, mask in hits.items():
                assert np.array_equal(mask, want[cycle, ops[g].nodes])

    def test_rate_zero_draws_nothing(self):
        packed = pack_circuits(
            [nl for nl, _ in lockstep_members(3, 0)], cache=False
        )
        config = FaultConfig(fault_rate=0.0, seed=9)
        bulk = _PackedInjector(packed, config, 2, 12)
        assert bulk.block(0, 12) == [{}] * 12
        fresh = np.random.default_rng(config.seed).bit_generator.state
        assert bulk.rng.bit_generator.state == fresh

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.sampled_from(
            [r for r in LOCKSTEP_RATES if r] + [5e-4, 0.02, 0.3, 6.25e-5]
        ),
        offset=st.sampled_from([-1, 0, 1]),
        low_bits=st.integers(0, 2**11 - 1),
        anywhere=st.integers(0, 2**64 - 1),
    )
    def test_property_integer_threshold_is_the_float_comparison(
        self, rate, offset, low_bits, anywhere
    ):
        """``rng.random() < w_lo`` on the double a raw word surfaces as
        (``(u >> 11) * 2**-53``, pinned in ``test_packed_engine``) equals
        the injector's integer test — checked on the words straddling the
        threshold and on arbitrary ones."""
        packed = pack_circuits([gate_zoo_netlist()], cache=False)
        config = FaultConfig(fault_rate=rate, per_pattern=False)
        bulk = _PackedInjector(packed, config, 1, 1)
        w_lo = reference.FaultInjector(rate, 1, np.random.default_rng(0)).w_lo
        top = min(max(bulk.lo_threshold + offset, 0), 2**53 - 1)
        for u in ((top << 11) | low_bits, anywhere):
            as_float = (u >> 11) * 2.0**-53 < w_lo
            assert ((u >> 11) < bulk.lo_threshold) == as_float


def every_kind_circuit() -> CompiledCircuit:
    """The gate zoo (every evaluable kind, the n-ary ones at arity 3, both
    constants driving logic) plus an arity-4 OR and a DFF fed by a DFF,
    compiled with one trailing node that no PI, DFF or group holds."""
    nl = gate_zoo_netlist()
    pis = [nl.node_by_name(name) for name in ("a", "b", "c")]
    d2 = nl.add_dff(nl.node_by_name("d0"), "d2")
    nl.add_po(nl.add_gate(GateType.OR, pis + [d2], "or4"))
    nl.validate()
    compiled = compile_netlist(nl)
    return dataclasses.replace(compiled, num_nodes=compiled.num_nodes + 1)


class _Recorder:
    def __init__(self) -> None:
        self.blocks: list[np.ndarray] = []

    def observe_block(self, history: np.ndarray) -> None:
        self.blocks.append(history.copy())


def assert_kernels_write_values(plan: SimPlan) -> None:
    """No scatter is left: every kernel output is a view of the plan's
    value buffer."""
    for step in plan.steps:
        for gates in step.gates:
            assert np.shares_memory(gates.out, plan.values)


class TestEveryGateKind:
    """The executor's value history equals the per-cycle reference on
    every gate kind, a DFF chain and a node outside every group."""

    ONE_BYTE = MemoryBudget(plan_bytes=1, history_bytes=1)

    @pytest.mark.parametrize("one_byte_budget", [False, True])
    def test_fault_free_history_equals_cycle(self, one_byte_budget):
        compiled = every_kind_circuit()
        assert {op.gate_type for op in compiled.ops} == {
            gt for gt in GateType if gt not in (GateType.PI, GateType.DFF)
        }
        rng = np.random.default_rng(5)
        init = rng.integers(0, 2**64, size=(compiled.num_nodes, 2), dtype=np.uint64)
        stim = rng.integers(0, 2**64, size=(24, 3, 2), dtype=np.uint64)
        ref = reference.CycleSimulator(compiled, streams=128)
        ref.values[:] = init
        trace = []
        for cycle, pi_words in enumerate(stim):
            trace.append(ref.step(pi_words, cycle).copy())
            ref.latch()
        budget = self.ONE_BYTE if one_byte_budget else None
        plan = SimPlan(compiled, 2, budget=budget)
        assert plan.streamed == one_byte_budget
        sim = Simulator(compiled, streams=128)
        sim.values[:] = init
        recorder = _Recorder()
        sim.run(len(stim), stim, observers=[recorder], plan=plan)
        assert np.array_equal(np.concatenate(recorder.blocks), np.stack(trace))
        assert np.array_equal(sim.values, ref.values)
        # The node in no group keeps whatever it held.
        assert np.array_equal(sim.values[-1], init[-1])
        assert_kernels_write_values(plan)

    @pytest.mark.parametrize("one_byte_budget", [False, True])
    def test_lockstep_history_equals_cycle(self, one_byte_budget):
        compiled = every_kind_circuit()
        wl = Workload(np.array([0.35, 0.6, 0.5]), seed=4)
        cfg = SimConfig(cycles=20, streams=128, warmup=2, seed=1, init_state="random")
        fc = FaultConfig(fault_rate=0.05, per_pattern=False, episode_cycles=8, seed=6)
        golden = reference.CycleSimulator(compiled, streams=cfg.streams)
        faulty = reference.CycleSimulator(compiled, streams=cfg.streams)
        injector = reference.FaultInjector(
            fc.effective_cycle_rate, golden.words, np.random.default_rng(fc.seed)
        )
        source = PatternSource(wl, streams=cfg.streams)
        trace = []
        cycle = 0
        for episode, observe in enumerate(_episode_schedule(cfg, fc)):
            for machine in (golden, faulty):
                machine.reset(cfg.init_state, np.random.default_rng(cfg.seed + episode))
            for _ in range(cfg.warmup + observe):
                pi_words = source.next_cycle()
                g = golden.step(pi_words, cycle)
                f = faulty.step(pi_words, cycle, fault_hook=injector.mask)
                trace.append(np.concatenate([g, f], axis=1))
                golden.latch()
                faulty.latch()
                cycle += 1
        blocks, plans = [], []
        run_block = Simulator.run_block

        def spy(sim, pi_block, plan, *, history=None, flips=None):
            values = run_block(sim, pi_block, plan, history=history, flips=flips)
            blocks.append(history.copy())
            plans.append(plan)
            return values

        budget = self.ONE_BYTE if one_byte_budget else None
        with mock.patch.object(Simulator, "run_block", spy):
            _run_packed_faults(
                pack_circuits([compiled], cache=False), [wl], cfg, fc, None, budget,
            )
        history = np.concatenate(blocks)
        # Faults landed in the faulty half, constants included.
        consts = np.concatenate([op.nodes for op in compiled.ops if not op.fanins.size])
        assert (history[:, consts, :2] != history[:, consts, 2:]).any()
        assert np.array_equal(history, np.stack(trace))
        (plan,) = set(plans)
        assert plan.streamed == one_byte_budget
        assert_kernels_write_values(plan)


class TestActivityCounterBlocks:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        splits=st.lists(st.integers(1, 7), min_size=1, max_size=5),
    )
    def test_property_observe_block_equals_observe(self, seed, splits):
        rng = np.random.default_rng(seed)
        total = sum(splits)
        history = rng.integers(0, 2**64, size=(total, 9, 2), dtype=np.uint64)
        per_cycle = reference.CycleCounter(9, 2)
        for values in history:
            per_cycle.observe(values)
        blocked = ActivityCounter(9, 2)
        start = 0
        for span in splits:
            blocked.observe_block(history[start : start + span])
            start += span
        assert np.array_equal(per_cycle.ones, blocked.ones)
        assert np.array_equal(per_cycle.tr01, blocked.tr01)
        assert np.array_equal(per_cycle.tr10, blocked.tr10)
        assert per_cycle.cycles == blocked.cycles
        assert per_cycle.pairs == blocked.pairs

    def test_empty_block_is_noop(self):
        counter = ActivityCounter(3, 1)
        counter.observe_block(np.empty((0, 3, 1), dtype=np.uint64))
        assert counter.cycles == 0 and counter.pairs == 0


class TestRunApi:
    def test_array_source_equals_pattern_source(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        cfg = SimConfig(cycles=20, streams=64, warmup=2, seed=0)
        ref = reference.simulate(nl, wl, cfg)
        compiled = compile_netlist(nl)
        sim = Simulator(compiled, streams=cfg.streams)
        sim.reset(cfg.init_state, np.random.default_rng(cfg.seed))
        stim = PatternSource(wl, streams=cfg.streams).next_block(
            cfg.warmup + cfg.cycles
        )
        counter = ActivityCounter(compiled.num_nodes, sim.words)
        sim.run(cfg.cycles, stim, counter, warmup=cfg.warmup, block_cycles=6)
        samples = counter.cycles * sim.streams
        pairs = max(counter.pairs, 1) * sim.streams
        assert np.array_equal(ref.logic_prob, counter.ones / samples)
        assert np.array_equal(ref.tr01_prob, counter.tr01 / pairs)

    def test_plan_reuse_across_runs(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        cfg = SimConfig(cycles=25, streams=64, seed=4)
        compiled = compile_netlist(nl)
        plan = SimPlan(compiled, 1)
        results = []
        for _ in range(2):
            sim = Simulator(compiled, streams=cfg.streams)
            sim.reset(cfg.init_state, np.random.default_rng(cfg.seed))
            counter = ActivityCounter(compiled.num_nodes, sim.words)
            sim.run(
                cfg.cycles,
                PatternSource(wl, streams=cfg.streams),
                counter,
                plan=plan,
            )
            results.append(counter.ones.copy())
        assert np.array_equal(results[0], results[1])

    def test_plan_for_wrong_circuit_rejected(self):
        zoo = compile_netlist(gate_zoo_netlist())
        other = compile_netlist(
            random_sequential_netlist(
                GeneratorConfig(n_pis=3, n_dffs=2, n_gates=10), seed=0
            )
        )
        plan = SimPlan(other, 1)
        sim = Simulator(zoo, streams=64)
        with pytest.raises(ValueError, match="different simulator"):
            sim.run_block(np.zeros((1, 3, 1), dtype=np.uint64), plan)

    def test_bad_stimulus_shape_rejected(self):
        sim = Simulator(gate_zoo_netlist(), streams=64)
        sim.reset()
        with pytest.raises(ValueError, match="stimulus array"):
            sim.run(4, np.zeros((4, 99, 1), dtype=np.uint64))

    def test_run_block_short_stimulus_rejected(self):
        """One PI row for a 3-PI circuit must not broadcast to every PI."""
        compiled = compile_netlist(gate_zoo_netlist())
        plan = SimPlan(compiled, 1)
        sim = Simulator(compiled, streams=64)
        sim.reset()
        before = sim.values.copy()
        for bad in ((2, 1, 1), (2, 3, 2), (3, 1)):
            with pytest.raises(ValueError, match="pi_block has shape"):
                sim.run_block(np.full(bad, 0xFFFF, dtype=np.uint64), plan)
        assert np.array_equal(sim.values, before)

    def test_run_block_short_history_rejected(self):
        compiled = compile_netlist(gate_zoo_netlist())
        plan = SimPlan(compiled, 1)
        sim = Simulator(compiled, streams=64)
        sim.reset()
        stim = np.zeros((3, 3, 1), dtype=np.uint64)
        n = compiled.num_nodes
        for bad in ((2, n, 1), (3, n + 1, 1), (3, n, 2)):
            with pytest.raises(ValueError, match="history has shape"):
                sim.run_block(stim, plan, history=np.empty(bad, dtype=np.uint64))
        sim.run_block(stim, plan, history=np.empty((4, n, 1), dtype=np.uint64))

    def test_run_block_short_flips_rejected(self):
        compiled = compile_netlist(gate_zoo_netlist())
        plan = SimPlan(compiled, 2)
        sim = Simulator(compiled, streams=128)
        sim.reset()
        stim = np.zeros((3, 3, 2), dtype=np.uint64)
        with pytest.raises(ValueError, match="flips covers 2 cycles"):
            sim.run_block(stim, plan, flips=[{}, {}])
        sim.run_block(stim, plan, flips=[{}, {}, {}])

    def test_bad_engine_rejected(self):
        nl = gate_zoo_netlist()
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(nl, zoo_workload(), SimConfig(cycles=4), engine="warp")

    def test_cycle_engine_left_the_library(self):
        """The per-cycle loop is the test oracle only: ``simulate`` runs
        the block executor under either of its names, and
        ``simulate_with_faults`` takes no engine at all."""
        nl = gate_zoo_netlist()
        with pytest.raises(ValueError, match="unknown engine 'cycle'"):
            simulate(nl, zoo_workload(), SimConfig(cycles=4), engine="cycle")
        with pytest.raises(TypeError, match="engine"):
            simulate_with_faults(
                nl, zoo_workload(), SimConfig(cycles=4), engine="block"
            )

    def test_latch_without_pending_step_rejected(self):
        """The reference's latch commits only a pending step() state; a
        missing or pre-reset one must fail loudly, not corrupt silently."""
        compiled = compile_netlist(gate_zoo_netlist())
        sim = reference.CycleSimulator(compiled, streams=64)
        sim.reset()
        with pytest.raises(RuntimeError, match="without a preceding step"):
            sim.latch()  # fresh simulator: nothing pending
        sim.step(np.zeros((3, 1), dtype=np.uint64), 0)
        sim.reset()
        with pytest.raises(RuntimeError, match="without a preceding step"):
            sim.latch()  # reset() also drops pre-reset pending state

    def test_plan_and_block_cycles_conflict_rejected(self):
        compiled = compile_netlist(gate_zoo_netlist())
        sim = Simulator(compiled, streams=64)
        sim.reset()
        plan = SimPlan(compiled, 1)
        stim = np.zeros((4, 3, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="not both"):
            sim.run(4, stim, plan=plan, block_cycles=2)

    def test_block_cycles_validation_and_memory_cap(self):
        compiled = compile_netlist(gate_zoo_netlist())
        with pytest.raises(ValueError):
            SimPlan(compiled, 1, block_cycles=0)
        tiny = SimPlan(compiled, 1, max_block_bytes=1)
        assert tiny.block_cycles == 1  # capped, never zero
        assert tiny.history.shape[0] == 1

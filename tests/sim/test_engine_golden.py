"""Golden-hash regression tests freezing the simulation engine's bits.

The per-cycle engine (:mod:`tests.sim.reference`) is the reproduction's
ground truth: every training
label, power number and reliability number flows from its value traces.
These tests pin SHA-256 digests of (a) the full settled value trace, (b)
the final statistics arrays, (c) the fault-sim label arrays and (d) the
label-cache digests, all computed from the pre-refactor engine on fixed
seeds — then require both engines to reproduce them bit-for-bit.  Any
future engine change that shifts a single bit (and therefore silently
invalidates cached labels without a ``CACHE_VERSION`` bump) fails here.

Digest values assume little-endian IEEE-754/uint64 byte layout (every
supported platform; the CI runners included).
"""

import numpy as np
import pytest

from repro.circuit.benchmarks import large_design
from repro.data.cache import label_key
from repro.memory import MemoryBudget
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import testbench_workload as make_tb_workload

from tests.sim import reference
from tests.sim._engines import (
    block_trace_hash,
    cycle_trace_hash,
    gate_zoo_netlist,
    stats_hash,
    zoo_workload,
)

#: All digests below were produced by the original per-cycle engine at
#: the commit preceding the block-stepped refactor (verified by running
#: the identical computation against that tree).
FINGERPRINT = "0ca35f94ca2af3f4068bb93b258337af4afb223154a25e91985250d77d39d7b8"
TRACE = "3551cfef9eb9861abb5da98026071cc89cf0d928b9653094978af7aa5485079c"
STATS_SIM = "733ed934baa1146b705b2122020b4a888575dea330ac900959bdb89c18595086"
STATS_FAULT = "dffcc7515a45fca2067875c21cc265af13131658a1cf098b281f2bd460155f20"
KEY_SIM = "7428ed62cb44571e4b25c56fca9a69fc2a334a71c9191e99695cc4c3b60c6cf9"
KEY_FAULT = "b80a949a8214db85769d42c5b44201bc82ca4a9a4b4ef781eb8d615961d53311"

CFG = SimConfig(cycles=48, streams=96, warmup=4, seed=5, init_state="random")
FAULT_CFG = FaultConfig(fault_rate=0.02, episode_cycles=20, seed=9)

#: Extra kwargs per block-executor row (``"cycle"`` is the per-cycle
#: reference).  ``"partitioned"`` (an alias of the block executor since
#: the partition engine's removal) runs under the tightest budget there
#: is — the widest group evaluated gate by gate, a one-cycle history,
#: one-cycle fault-mask chunks — so the digests are also hit through the
#: chunked path, sim and fault.
ENGINE_KWARGS = {
    "block": {},
    "partitioned": {"budget": MemoryBudget(plan_bytes=1, history_bytes=1)},
}


@pytest.fixture(scope="module")
def zoo():
    return gate_zoo_netlist(), zoo_workload()


class TestValueTrace:
    def test_cycle_engine_trace_pinned(self, zoo):
        nl, wl = zoo
        assert cycle_trace_hash(nl, wl, CFG) == TRACE

    def test_block_engine_reproduces_pinned_trace(self, zoo):
        nl, wl = zoo
        assert block_trace_hash(nl, wl, CFG) == TRACE

    @pytest.mark.parametrize("block_cycles", [1, 3, 7, 52, 64])
    def test_trace_independent_of_block_size(self, zoo, block_cycles):
        nl, wl = zoo
        assert block_trace_hash(nl, wl, CFG, block_cycles) == TRACE

    @pytest.mark.parametrize(
        "budget",
        [
            MemoryBudget(history_bytes=8192),
            MemoryBudget(plan_bytes=2048),
            MemoryBudget(plan_bytes=2048, history_bytes=8192),
        ],
        ids=["history-capped", "streamed-plan", "both"],
    )
    def test_trace_independent_of_memory_budget(self, zoo, budget):
        """Budgets shrink buffers, spill history — never move a bit."""
        nl, wl = zoo
        assert block_trace_hash(nl, wl, CFG, budget=budget) == TRACE


class TestFinalStats:
    def test_netlist_fingerprint_pinned(self, zoo):
        nl, _ = zoo
        assert nl.fingerprint() == FINGERPRINT

    @pytest.mark.parametrize("engine", ["cycle", "block", "partitioned"])
    def test_sim_stats_pinned(self, zoo, engine):
        nl, wl = zoo
        if engine == "cycle":
            r = reference.simulate(nl, wl, CFG)
        else:
            r = simulate(nl, wl, CFG, engine=engine, **ENGINE_KWARGS[engine])
        digest = stats_hash([r.logic_prob, r.tr01_prob, r.tr10_prob])
        assert digest == STATS_SIM

    def test_budgeted_block_stats_pinned(self, zoo):
        nl, wl = zoo
        r = simulate(
            nl, wl, CFG,
            budget=MemoryBudget(plan_bytes=2048, history_bytes=8192),
        )
        digest = stats_hash([r.logic_prob, r.tr01_prob, r.tr10_prob])
        assert digest == STATS_SIM

    @pytest.mark.parametrize("engine", ["cycle", "block", "partitioned"])
    def test_fault_stats_pinned(self, zoo, engine):
        nl, wl = zoo
        if engine == "cycle":
            fr = reference.simulate_with_faults(nl, wl, CFG, FAULT_CFG)
        else:
            fr = simulate_with_faults(
                nl, wl, CFG, FAULT_CFG, **ENGINE_KWARGS[engine]
            )
        digest = stats_hash(
            [
                fr.err01,
                fr.err10,
                fr.observed0,
                fr.observed1,
                np.float64(fr.reliability),
            ]
        )
        assert digest == STATS_FAULT

    def test_budgeted_block_fault_stats_pinned(self, zoo):
        nl, wl = zoo
        fr = simulate_with_faults(
            nl, wl, CFG, FAULT_CFG,
            budget=MemoryBudget(plan_bytes=2048, history_bytes=8192),
        )
        digest = stats_hash(
            [
                fr.err01,
                fr.err10,
                fr.observed0,
                fr.observed1,
                np.float64(fr.reliability),
            ]
        )
        assert digest == STATS_FAULT


class TestCacheDigests:
    """The label cache addresses by these digests; they must not move.

    ``label_key`` has no engine input by design — a moved digest here
    means cached labels were orphaned and ``CACHE_VERSION`` discipline
    was violated.
    """

    def test_sim_label_key_pinned(self, zoo):
        nl, wl = zoo
        assert label_key("sim", nl.fingerprint(), wl, CFG) == KEY_SIM

    def test_fault_label_key_pinned(self, zoo):
        nl, wl = zoo
        key = label_key("fault", nl.fingerprint(), wl, CFG, FAULT_CFG)
        assert key == KEY_FAULT

    @pytest.mark.parametrize(
        "scale, kind, digest",
        [
            (0.125, "sim",
             "bbe210e53ae9dd4d57f99e0f9800cce66b571b08774456415dd4138b2f58360f"),
            (0.125, "fault",
             "82bba0a2cd50c5ca5bfa793bede2ec65084b6280aa4275b3bf92c4ee8bddbfc4"),
            (0.5, "sim",
             "e9449bd63b07fb938e5c94632c49957bdde36506859ff7bbc5a2f76c0b899712"),
            (0.5, "fault",
             "acb88945ca854f026d8903276c09782752a47e7e27038e44cc530c80558f2e91"),
        ],
        ids=["small-sim", "small-fault", "medium-sim", "medium-fault"],
    )
    def test_test_design_label_keys_pinned(self, scale, kind, digest):
        """The keys of a generated test design under ``testbench_workload``
        and the default ``FaultConfig`` fields: they also move when the
        design generator, the workload synthesis or a config default does."""
        nl = large_design("ptc", scale=scale)
        key = label_key(
            kind,
            nl.fingerprint(),
            make_tb_workload(nl, seed=1),
            SimConfig(cycles=128, streams=64, seed=0),
            FaultConfig(seed=2) if kind == "fault" else None,
        )
        assert key == digest

    def test_cached_legacy_labels_valid_for_block_engine(self, zoo):
        """A cache entry written by the old engine must satisfy a block-
        engine consumer bit-for-bit (that is what 'no CACHE_VERSION bump'
        means operationally)."""
        nl, wl = zoo
        legacy = reference.simulate(nl, wl, CFG)
        block = simulate(nl, wl, CFG)
        assert np.array_equal(legacy.logic_prob, block.logic_prob)
        assert np.array_equal(legacy.tr01_prob, block.tr01_prob)
        assert np.array_equal(legacy.tr10_prob, block.tr10_prob)

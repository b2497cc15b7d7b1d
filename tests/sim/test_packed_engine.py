"""Packed multi-circuit engine: golden digests, differentials, cache.

The packed engine (:mod:`repro.sim.pack`) fuses K circuits into one
block-stepped sweep and promises results *bitwise-identical* to K
sequential per-circuit calls — which is what lets packed execution reuse
the label cache without a ``CACHE_VERSION`` bump.  Single-circuit
``simulate``/``simulate_with_faults`` are themselves packs of one, so the
independent oracle here is the per-cycle reference (``engine="cycle"``).
This layer pins the promise four ways:

* **golden digests** — packed members reproduce the same pinned SHA-256
  stats digests the per-circuit engines are frozen to;
* **differentials** — hypothesis-driven packed-vs-sequential comparison
  across member counts, block sizes, fault rates and heterogeneous
  netlists (gate-zoo + random sequential members);
* **stream alignment** — the packed fault injector bulk-draws the
  members' shared PCG64 raw stream in chunks of merged windows; tests
  force many tiny chunks to pin each member's consumed position, plus
  direct property tests of the raw-stream facts the bulk parse relies on;
* **cache behaviour** — the fingerprint-keyed pack-plan LRU and the
  label cache (packed runs must fully hit a serially-populated cache).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import PCG64, Generator

import repro.sim.pack as pack_mod
from repro.circuit.aig import to_aig
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.sim.faults import FaultConfig, simulate_with_faults
from repro.sim.logicsim import SimConfig, compile_netlist, simulate
from repro.sim.pack import (
    MAX_PACK_MEMBERS,
    clear_sim_pack_cache,
    configure_sim_pack_cache,
    pack_circuits,
    sim_pack_cache_info,
    simulate_packed,
    simulate_with_faults_packed,
)
from repro.sim.workload import Workload, random_workload

from tests.sim._engines import gate_zoo_netlist, stats_hash, zoo_workload
from tests.sim.test_engine_golden import CFG, FAULT_CFG, STATS_FAULT, STATS_SIM


@pytest.fixture(autouse=True)
def fresh_pack_cache():
    clear_sim_pack_cache()
    configure_sim_pack_cache(32)
    yield
    clear_sim_pack_cache()
    configure_sim_pack_cache(32)


def random_member(seed: int):
    nl = to_aig(
        random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=25), seed=seed
        )
    ).aig
    return nl, random_workload(nl, seed + 1)


def assert_sim_equal(ref, got, label=""):
    assert np.array_equal(ref.logic_prob, got.logic_prob), label
    assert np.array_equal(ref.tr01_prob, got.tr01_prob), label
    assert np.array_equal(ref.tr10_prob, got.tr10_prob), label


def assert_fault_equal(ref, got, label=""):
    assert np.array_equal(ref.err01, got.err01), label
    assert np.array_equal(ref.err10, got.err10), label
    assert np.array_equal(ref.observed0, got.observed0), label
    assert np.array_equal(ref.observed1, got.observed1), label
    assert ref.reliability == got.reliability, label


class TestGoldenDigests:
    """Packed members must land on the *pinned* per-circuit digests."""

    def test_packed_members_reproduce_pinned_sim_stats(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        results = simulate_packed([nl] * 3, [wl] * 3, CFG)
        for k, r in enumerate(results):
            digest = stats_hash([r.logic_prob, r.tr01_prob, r.tr10_prob])
            assert digest == STATS_SIM, f"member {k}"

    def test_packed_members_reproduce_pinned_fault_stats(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        results = simulate_with_faults_packed(
            [nl] * 3, [wl] * 3, CFG, FAULT_CFG
        )
        for k, fr in enumerate(results):
            digest = stats_hash(
                [
                    fr.err01,
                    fr.err10,
                    fr.observed0,
                    fr.observed1,
                    np.float64(fr.reliability),
                ]
            )
            assert digest == STATS_FAULT, f"member {k}"

    def test_single_member_pack_reproduces_pinned_sim_stats(self):
        nl = gate_zoo_netlist()
        (r,) = simulate_packed([nl], [zoo_workload()], CFG)
        assert stats_hash([r.logic_prob, r.tr01_prob, r.tr10_prob]) == STATS_SIM


class TestDifferential:
    """Packed == K sequential calls, bit for bit, under fuzzed shapes."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2000),
        k=st.integers(min_value=1, max_value=4),
        block_cycles=st.sampled_from([None, 1, 3, 7, 64]),
    )
    def test_sim_matches_sequential(self, seed, k, block_cycles):
        members = [random_member(seed + 10 * i) for i in range(k)]
        members.append((gate_zoo_netlist(), zoo_workload(seed)))
        cfg = SimConfig(cycles=24, streams=64, warmup=2, seed=seed)
        packed = simulate_packed(
            [nl for nl, _ in members],
            [wl for _, wl in members],
            cfg,
            block_cycles=block_cycles,
            cache=False,
        )
        for i, (nl, wl) in enumerate(members):
            ref = simulate(nl, wl, cfg, engine="cycle")
            assert_sim_equal(ref, packed[i], f"member {i}")

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2000),
        k=st.integers(min_value=1, max_value=3),
        fault_rate=st.sampled_from([0.02, 0.002, 5e-6]),
        block_cycles=st.sampled_from([None, 3, 17]),
    )
    def test_fault_matches_sequential(self, seed, k, fault_rate, block_cycles):
        members = [random_member(seed + 10 * i) for i in range(k)]
        members.append((gate_zoo_netlist(), zoo_workload(seed)))
        cfg = SimConfig(cycles=30, streams=64, warmup=2, seed=seed)
        fault = FaultConfig(
            fault_rate=fault_rate, episode_cycles=13, seed=seed + 3
        )
        packed = simulate_with_faults_packed(
            [nl for nl, _ in members],
            [wl for _, wl in members],
            cfg,
            fault,
            block_cycles=block_cycles,
            cache=False,
        )
        for i, (nl, wl) in enumerate(members):
            ref = simulate_with_faults(nl, wl, cfg, fault, engine="cycle")
            assert_fault_equal(ref, packed[i], f"member {i}")

    def test_precompiled_and_netlist_members_agree(self):
        nl, wl = random_member(7)
        cfg = SimConfig(cycles=16, streams=64, seed=7)
        from_nl = simulate_packed([nl, nl], [wl, wl], cfg, cache=False)
        compiled = compile_netlist(nl)
        from_cc = simulate_packed(
            [compiled, compiled], [wl, wl], cfg, cache=False
        )
        for a, b in zip(from_nl, from_cc):
            assert_sim_equal(a, b)

class TestSingleRunIsPackOfOne:
    """``simulate``/``simulate_with_faults`` are the one-member case of
    the packed runs: bitwise-equal, and invisible to the pack LRU."""

    def test_bitwise_equal_and_cache_untouched(self):
        nl, wl = random_member(5)
        cfg = SimConfig(cycles=40, streams=128, warmup=3, seed=4, init_state="random")
        fault = FaultConfig(fault_rate=0.03, episode_cycles=15, seed=8)
        pack_circuits([nl, nl])  # one real entry, so the counters are live
        before = sim_pack_cache_info()
        single = simulate(nl, wl, cfg, replay_seed=77)
        single_fault = simulate_with_faults(nl, wl, cfg, fault, replay_seed=77)
        assert sim_pack_cache_info() == before
        [packed] = simulate_packed([nl], [wl], cfg, replay_seeds=[77], cache=False)
        [packed_fault] = simulate_with_faults_packed(
            [nl], [wl], cfg, fault, replay_seeds=[77], cache=False
        )
        assert_sim_equal(single, packed)
        assert (single.cycles, single.streams) == (packed.cycles, packed.streams)
        assert single.netlist is packed.netlist is nl
        assert_fault_equal(single_fault, packed_fault)
        assert single_fault.netlist is nl

    def test_budget_and_block_size_thread_through(self):
        from repro.memory import MemoryBudget

        nl, wl = random_member(6)
        cfg = SimConfig(cycles=24, streams=64, warmup=2, seed=1)
        fault = FaultConfig(fault_rate=0.05, episode_cycles=10, seed=2)
        ref = simulate_with_faults(nl, wl, cfg, fault, engine="cycle")
        got = simulate_with_faults(
            nl, wl, cfg, fault, block_cycles=5,
            budget=MemoryBudget(plan_bytes=1, history_bytes=1),
        )
        assert_fault_equal(ref, got)


class TestInjectorStreamAlignment:
    """The bulk raw-stream parse must leave each member's stream position
    exactly where the standalone injector would have reached — chunk
    boundaries included (a position that counts a window's unused tail
    desynchronizes every later chunk).  All members read the one shared
    stream, so each chunk re-positions the generator per merged window."""

    @pytest.mark.parametrize("fault_rate", [0.02, 5e-6])
    def test_many_tiny_chunks_stay_bitwise(self, monkeypatch, fault_rate):
        # Cap the chunk buffer so the injector is forced through many
        # prepare() calls within one run, exercising the rewind path on
        # every boundary.
        monkeypatch.setattr(pack_mod, "_CHUNK_BYTES_CAP", 1 << 12)
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        cfg = SimConfig(cycles=64, streams=64, warmup=2, seed=3)
        fault = FaultConfig(fault_rate=fault_rate, episode_cycles=20, seed=11)
        packed = simulate_with_faults_packed(
            [nl] * 4, [wl] * 4, cfg, fault, cache=False
        )
        ref = simulate_with_faults(nl, wl, cfg, fault, engine="cycle")
        for k, got in enumerate(packed):
            assert_fault_equal(ref, got, f"member {k}")

    def test_large_member_chunks_by_raw_draw_and_stays_bitwise(self):
        """One large member at the paper's fault rate: the raw draw is
        ``k_hi`` = 18 times the flip buffer, so it must set the chunk
        (sizing by the flip buffer alone peaked at 183 MiB on a 19k-node
        design).  Pins the traced peak of preparing masks and re-asserts
        mask equality with the standalone injector across chunk
        boundaries."""
        import tracemalloc

        from repro.sim.faults import _FaultInjector
        from repro.sim.pack import _PackedInjector

        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=16, n_dffs=32, n_gates=6000, n_pos=8), seed=4
        )
        packed = pack_circuits([nl], cache=False)
        config = FaultConfig(seed=5)  # 5e-4 per 100-cycle pattern
        cycles = 20
        ops = packed.compiled.ops
        got = np.zeros((cycles, packed.num_nodes, 1), dtype=np.uint64)
        tracemalloc.start()
        bulk = _PackedInjector(packed, config, 1, cycles)
        for c, hits in enumerate(bulk.block(0, cycles)):
            for g, mask in hits.items():
                got[c, ops[g].nodes] = mask
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert bulk.k_hi == 18
        raw_cycle_bytes = 8 * bulk.max_per_cycle[0]
        assert raw_cycle_bytes > 16 * 8 * packed.num_nodes
        cap = pack_mod._CHUNK_BYTES_CAP
        # Sized by the flip buffer alone, one chunk would have covered the
        # run and drawn cycles * raw bytes at once; sized by the raw draw
        # the run takes several chunks and the traced peak — flip buffer,
        # raw draw and mask gathers — stays near the cap.
        assert cycles * raw_cycle_bytes > 2 * cap
        assert 1 < bulk.chunk_cycles < cycles
        assert bulk.chunk_cycles * raw_cycle_bytes <= cap
        assert peak < 5 * cap // 4
        ref = _FaultInjector(
            config.effective_cycle_rate, 1, np.random.default_rng(config.seed)
        )
        want = np.zeros_like(got)
        for c in range(cycles):
            for op in ops:
                want[c, op.nodes] = ref.mask(c, op.nodes)
        assert got.any() and np.array_equal(want, got)

    @pytest.mark.parametrize("fault_rate", [5e-6, 2e-3])
    def test_mixed_size_pack_draws_merged_windows(self, monkeypatch, fault_rate):
        """A ~20-node member packed with a ~2 000-node one over 20+ chunks.
        The small member falls ever further behind in the shared stream,
        so one contiguous span from it to the large member's window would
        outgrow both windows; merging the windows keeps every chunk's raw
        draw within their sum, and each member's masks stay
        bitwise-equal to its standalone injector's."""
        from repro.sim.faults import _FaultInjector
        from repro.sim.pack import _PackedInjector

        monkeypatch.setattr(pack_mod, "_CHUNK_BYTES_CAP", 1 << 20)
        # Shallow and AND-only: few groups, so the reference draws stay cheap.
        shallow = GeneratorConfig(
            n_pis=64, n_dffs=32, n_gates=2000, n_pos=8, locality=0.05,
            gate_mix={GateType.AND: 1.0},
        )
        big = random_sequential_netlist(shallow, seed=9)
        packed = pack_circuits([gate_zoo_netlist(), big], cache=False)
        config = FaultConfig(fault_rate=fault_rate, per_pattern=False, seed=6)
        cycles = 120
        bulk = _PackedInjector(packed, config, 1, cycles)
        chunks = []
        prepare = bulk._prepare

        def spy(start):
            before = list(bulk.pos)
            prepare(start)
            ncyc = bulk.end - bulk.base
            ends = [p + ncyc * m for p, m in zip(before, bulk.max_per_cycle)]
            chunks.append((ncyc, bulk.raw_words, max(ends) - min(before)))

        bulk._prepare = spy
        ops = packed.compiled.ops
        got = np.zeros((cycles, packed.num_nodes, 1), dtype=np.uint64)
        for c, hits in enumerate(bulk.block(0, cycles)):
            for g, mask in hits.items():
                got[c, ops[g].nodes] = mask
        want = np.zeros_like(got)
        for member, targets in zip(packed.members, packed.shifted_ops):
            ref = _FaultInjector(fault_rate, 1, np.random.default_rng(config.seed))
            for c in range(cycles):
                for op, rows in zip(member.ops, targets):
                    want[c, rows] = ref.mask(c, op.nodes)
        assert got.any() and np.array_equal(want, got)
        per_cycle = sum(bulk.max_per_cycle)
        assert len(chunks) >= 20 and max(n for n, _, _ in chunks) > 1
        for ncyc, raw, _ in chunks:
            assert raw <= ncyc * per_cycle
            assert 8 * raw <= pack_mod._CHUNK_BYTES_CAP
        assert any(span > ncyc * per_cycle for ncyc, _, span in chunks)

    def test_full_range_integers_split_like_one_call(self):
        bulk = Generator(PCG64(42)).integers(0, 2**64, size=16, dtype=np.uint64)
        g = Generator(PCG64(42))
        split = np.concatenate(
            [
                g.integers(0, 2**64, size=5, dtype=np.uint64),
                g.integers(0, 2**64, size=11, dtype=np.uint64),
            ]
        )
        assert np.array_equal(bulk, split)

    def test_scalar_random_parses_one_raw_word(self):
        raw = Generator(PCG64(43)).integers(0, 2**64, size=3, dtype=np.uint64)
        g = Generator(PCG64(43))
        for u in raw:
            assert g.random() == (int(u) >> 11) * 2.0**-53

    def test_negative_advance_rewinds_stream(self):
        g = Generator(PCG64(44))
        first = g.integers(0, 2**64, size=9, dtype=np.uint64)
        g.bit_generator.advance(-9)
        again = g.integers(0, 2**64, size=9, dtype=np.uint64)
        assert np.array_equal(first, again)


class TestPackErrors:
    def test_empty_pack_raises(self):
        with pytest.raises(ValueError, match="zero circuits"):
            pack_circuits([])

    def test_oversized_pack_raises(self):
        nl = gate_zoo_netlist()
        with pytest.raises(ValueError, match="MAX_PACK_MEMBERS"):
            pack_circuits([nl] * (MAX_PACK_MEMBERS + 1))

    def test_workload_count_mismatch_raises(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        with pytest.raises(ValueError, match="workloads"):
            simulate_packed([nl], [wl, wl], SimConfig(cycles=4))

    def test_workload_pi_mismatch_raises(self):
        nl = gate_zoo_netlist()
        bad = Workload(np.array([0.5, 0.5]), "bad", seed=1)
        with pytest.raises(ValueError, match="PI probabilities"):
            simulate_packed([nl], [bad], SimConfig(cycles=4))

    def test_replay_seeds_length_mismatch_raises(self):
        nl = gate_zoo_netlist()
        wl = zoo_workload()
        with pytest.raises(ValueError, match="replay_seeds"):
            simulate_packed(
                [nl, nl], [wl, wl], SimConfig(cycles=4), replay_seeds=[1]
            )

    def test_cache_maxsize_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            configure_sim_pack_cache(0)


class TestPackPlanCache:
    def test_repack_hits_cache(self):
        nl = gate_zoo_netlist()
        first = pack_circuits([nl, nl])
        second = pack_circuits([nl, nl])
        assert second is first
        info = sim_pack_cache_info()
        assert info.misses == 1 and info.hits == 1 and info.size == 1

    def test_hit_compiles_nothing(self, monkeypatch):
        zoo = gate_zoo_netlist()
        other, wl = random_member(3)
        compiles = []

        def counting_compile(nl):
            compiles.append(nl)
            return compile_netlist(nl)

        monkeypatch.setattr(pack_mod, "compile_netlist", counting_compile)
        cfg = SimConfig(cycles=16, streams=64, seed=3)
        workloads = [zoo_workload(3), wl]
        miss = simulate_packed([zoo, other], workloads, cfg)
        assert len(compiles) == 2
        hit = simulate_packed([zoo, other], workloads, cfg)
        assert len(compiles) == 2
        info = sim_pack_cache_info()
        assert info.misses == 1 and info.hits == 1
        for a, b in zip(miss, hit):
            assert_sim_equal(a, b)

    def test_distinct_compositions_miss_separately(self):
        zoo = gate_zoo_netlist()
        other, _ = random_member(3)
        pack_circuits([zoo, zoo])
        pack_circuits([zoo, other])
        pack_circuits([zoo])
        info = sim_pack_cache_info()
        assert info.misses == 3 and info.size == 3

    def test_eviction_is_lru(self):
        zoo = gate_zoo_netlist()
        other, _ = random_member(3)
        configure_sim_pack_cache(1)
        a = pack_circuits([zoo])
        pack_circuits([other])
        assert sim_pack_cache_info().evictions == 1
        # The first plan was evicted: repacking it misses again.
        b = pack_circuits([zoo])
        assert b is not a
        assert sim_pack_cache_info().misses == 3

    def test_cache_false_bypasses_counters(self):
        nl = gate_zoo_netlist()
        pack_circuits([nl], cache=False)
        pack_circuits([nl], cache=False)
        info = sim_pack_cache_info()
        assert info.hits == 0 and info.misses == 0 and info.size == 0

    def test_clear_resets_counters(self):
        nl = gate_zoo_netlist()
        pack_circuits([nl])
        clear_sim_pack_cache()
        info = sim_pack_cache_info()
        assert info.size == 0 and info.misses == 0 and info.hits == 0


class TestLabelCacheInvariance:
    """Packed execution never changes label keys: a packed factory must
    fully hit a cache populated by serial per-circuit runs."""

    def test_packed_factory_hits_serial_cache(self, tmp_path):
        from repro.data import DataFactory, FactoryConfig

        members = [random_member(40 + 10 * i) for i in range(5)]
        cfg = SimConfig(cycles=12, streams=64, seed=4)
        serial = DataFactory(
            FactoryConfig(workers=0, pack_size=1, cache_dir=tmp_path)
        )
        refs = [serial.simulate(nl, wl, cfg) for nl, wl in members]
        assert serial.stats.misses == len(members)

        packed = DataFactory(
            FactoryConfig(workers=0, pack_size=4, cache_dir=tmp_path)
        )
        got = packed.simulate_many(
            [nl for nl, _ in members], [wl for _, wl in members], cfg
        )
        assert packed.stats.misses == 0
        assert packed.stats.disk_hits == len(members)
        for ref, g in zip(refs, got):
            assert_sim_equal(ref, g)

    def test_serial_reads_packed_populated_cache(self, tmp_path):
        from repro.data import DataFactory, FactoryConfig

        members = [random_member(80 + 10 * i) for i in range(4)]
        cfg = SimConfig(cycles=12, streams=64, seed=4)
        fault = FaultConfig(seed=6)
        packed = DataFactory(
            FactoryConfig(workers=0, pack_size=4, cache_dir=tmp_path)
        )
        refs = packed.simulate_faults_many(
            [nl for nl, _ in members], [wl for _, wl in members], cfg, fault
        )
        serial = DataFactory(
            FactoryConfig(workers=0, pack_size=1, cache_dir=tmp_path)
        )
        for (nl, wl), ref in zip(members, refs):
            got = serial.simulate_faults(nl, wl, cfg, fault)
            assert_fault_equal(ref, got)
        assert serial.stats.misses == 0
        assert serial.stats.disk_hits == len(members)

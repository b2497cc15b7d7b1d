"""Plan compilation, fingerprints, and the shared LRU cache."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.graph import CircuitGraph, EdgeBatch
from repro.circuit.netlist import Netlist
from repro.runtime.plan import (
    GraphPlan,
    ScheduleError,
    baseline_batches,
    clear_plan_cache,
    configure_plan_cache,
    fingerprint_of,
    plan_cache_info,
    plan_for,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    configure_plan_cache(128)
    yield
    clear_plan_cache()
    configure_plan_cache(128)


from tests.conftest import (
    build_graph,
    build_pair,
    dff_chain_pair,
    shallow_pair,
    single_node_pair,
)


def make_aig(seed=0, n_pis=5, n_dffs=3, n_gates=40):
    return build_graph(seed, n_pis, n_dffs, n_gates).netlist


def toggle_netlist(name="toggle", pi_name="a"):
    nl = Netlist(name=name)
    a = nl.add_pi(pi_name)
    ff = nl.add_dff(None, f"{pi_name}_state")
    inv = nl.add_gate(GateType.NOT, [ff], f"{pi_name}_n1")
    g = nl.add_gate(GateType.AND, [a, inv], f"{pi_name}_g1")
    nl.set_fanins(ff, [g])
    nl.add_po(g)
    nl.validate()
    return nl


class TestFingerprint:
    def test_stable_across_copies(self):
        nl = make_aig(seed=1)
        assert nl.fingerprint() == nl.copy().fingerprint()

    def test_ignores_node_names(self):
        assert (
            toggle_netlist("a", "x").fingerprint()
            == toggle_netlist("b", "y").fingerprint()
        )

    def test_sensitive_to_structure(self):
        base = toggle_netlist()
        extra = toggle_netlist()
        extra.add_gate(GateType.NOT, [0], "tail")
        assert base.fingerprint() != extra.fingerprint()

    def test_sensitive_to_pos(self):
        base = toggle_netlist()
        more_pos = toggle_netlist()
        more_pos.add_po(2)
        assert base.fingerprint() != more_pos.fingerprint()

    def test_graph_fingerprint_memoized(self):
        graph = CircuitGraph(make_aig(seed=2))
        assert fingerprint_of(graph) == fingerprint_of(graph)
        assert fingerprint_of(graph) == graph.netlist.fingerprint()


class TestPlanCache:
    def test_netlist_and_graph_share_entry(self):
        nl = make_aig(seed=3)
        plan_a = plan_for(nl)
        plan_b = plan_for(CircuitGraph(nl))
        assert plan_a is plan_b
        info = plan_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_structural_twins_share_plan(self):
        assert plan_for(toggle_netlist("a", "x")) is plan_for(toggle_netlist("b", "y"))

    def test_graph_object_not_rebuilt(self):
        graph = CircuitGraph(make_aig(seed=4))
        assert plan_for(graph).graph is graph

    def test_lru_eviction(self):
        configure_plan_cache(2)
        plans = [plan_for(make_aig(seed=s)) for s in (10, 11, 12)]
        info = plan_cache_info()
        assert info.size == 2 and info.evictions == 1
        # seed 10 was evicted: compiling it again is a miss...
        assert plan_for(plans[0].graph) is not plans[0]
        # ...while seed 12 is still resident.
        assert plan_for(plans[2].graph) is plans[2]

    def test_cache_opt_out(self):
        nl = make_aig(seed=5)
        plan = plan_for(nl, cache=False)
        assert plan_for(nl, cache=False) is not plan
        assert plan_cache_info().size == 0


class TestSchedules:
    def test_custom_schedule_drops_zero_edge_sink_level(self):
        graph = CircuitGraph(make_aig(seed=6))
        fwd, rev = plan_for(graph).schedule(custom=True)
        assert all(b.num_edges > 0 for b in fwd + rev)
        # The raw reverse schedule starts with the sink level, which has
        # no comb successors and therefore no edges.
        assert graph.reverse_batches[0].num_edges == 0
        total_raw = sum(b.num_edges for b in graph.reverse_batches)
        assert sum(b.num_edges for b in rev) == total_raw

    def test_baseline_schedule_includes_dff_updates(self):
        graph = CircuitGraph(make_aig(seed=7, n_dffs=4))
        fwd, _ = plan_for(graph).schedule(custom=False)
        dff_nodes = set(int(d) for d in graph.dff_ids)
        scheduled = set(int(n) for b in fwd for n in b.nodes)
        assert dff_nodes <= scheduled

    def test_baseline_matches_legacy_helper(self):
        graph = CircuitGraph(make_aig(seed=8))
        raw_fwd, raw_rev = baseline_batches(graph)
        fwd, rev = plan_for(graph).schedule(custom=False)
        assert sum(b.num_edges for b in fwd) == sum(b.num_edges for b in raw_fwd)
        assert sum(b.num_edges for b in rev) == sum(
            b.num_edges for b in raw_rev
        )

    def test_schedules_are_memoized(self):
        plan = plan_for(make_aig(seed=9))
        assert plan.schedule(True) is plan.schedule(True)
        assert plan.schedule(False) is plan.schedule(False)


def level(nodes, src, dst_local):
    return EdgeBatch(
        nodes=np.array(nodes), src=np.array(src), dst_local=np.array(dst_local)
    )


class TestSingleWriteCheck:
    """The one-buffer sweep needs every node written at most once per
    pass; ``schedule`` checks it once per plan and schedule kind."""

    def hand_built(self, forward, reverse=()):
        graph = SimpleNamespace(
            forward_batches=list(forward), reverse_batches=list(reverse)
        )
        return GraphPlan(graph, "hand-built")

    def test_node_in_two_levels_rejected(self):
        plan = self.hand_built([
            level([2, 3], [0, 1], [0, 1]),
            level([4], [2], [0]),
            level([5, 3], [4, 4], [0, 1]),
        ])
        with pytest.raises(ScheduleError, match="writes node 3 at levels 0 and 2"):
            plan.schedule(custom=True)
        assert issubclass(ScheduleError, ValueError)

    def test_node_twice_in_one_level_rejected(self):
        plan = self.hand_built(
            [], [level([1], [0], [0]), level([2, 2], [0, 1], [0, 1])]
        )
        with pytest.raises(ScheduleError, match="reverse schedule writes node 2 at levels 1 and 1"):
            plan.schedule(custom=True)

    def test_unsorted_destinations_rejected(self):
        """The aggregator kernels reduce each node's messages as one
        contiguous segment; a level with unsorted ``dst_local`` has none."""
        plan = self.hand_built(
            [level([2, 3], [0, 1], [0, 1])],
            [level([1], [2], [0]), level([0, 4], [1, 2, 3], [1, 0, 1])],
        )
        with pytest.raises(ScheduleError, match="reverse schedule level 1 has unsorted"):
            plan.schedule(custom=True)

    def test_disjoint_hand_built_schedule_accepted(self):
        plan = self.hand_built(
            [level([2, 3], [0, 1], [0, 1]), level([4], [2, 3], [0, 0])]
        )
        fwd, rev = plan.schedule(custom=True)
        assert [b.nodes.tolist() for b in fwd] == [[2, 3], [4]] and rev == []

    @pytest.mark.parametrize("custom", [True, False])
    @pytest.mark.parametrize(
        "pair",
        [
            lambda: build_pair(0, 5, 4, 60),
            lambda: build_pair(7, 4, 12, 14),
            lambda: build_pair(1, 5, 0, 45),
            dff_chain_pair,
            shallow_pair,
            single_node_pair,
        ],
    )
    def test_compiled_schedules_write_each_node_once(self, pair, custom):
        graph, _ = pair()
        for batches in plan_for(graph, cache=False).schedule(custom=custom):
            nodes = np.concatenate([b.nodes for b in batches]) if batches else np.array([])
            assert np.unique(nodes).size == nodes.size


class TestFeatures:
    def test_float64_returns_graph_matrix(self):
        graph = CircuitGraph(make_aig(seed=10))
        plan = plan_for(graph)
        assert plan.features(np.float64) is graph.features

    def test_float32_cast_cached(self):
        plan = plan_for(make_aig(seed=11))
        f32 = plan.features(np.float32)
        assert f32.dtype == np.float32
        assert plan.features("float32") is f32
        np.testing.assert_array_equal(f32, plan.features(np.float64))


class TestStreamedFeatureRows:
    def test_resident_bytes_positive_and_scales_with_dtype(self):
        plan = plan_for(make_aig(seed=3))
        assert plan.resident_bytes() > 0
        assert plan.resident_bytes(dtype=np.float32) * 2 == plan.resident_bytes(
            dtype=np.float64
        )

"""Hypothesis-driven properties of packing and the plan LRU.

Seeded random netlists from :mod:`repro.circuit.generate` exercise the
invariants the packed training/serving paths rely on: disjoint unions
round-trip node and edge counts, member slices tile the union exactly,
and fingerprint-equal structures share one cached plan (and therefore
identical schedule objects).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.compose import disjoint_union
from repro.circuit.graph import CircuitGraph
from repro.runtime.pack import clear_pack_cache, pack_graphs
from repro.runtime.plan import clear_plan_cache, fingerprint_of, plan_for

from tests.conftest import build_graph, dff_chain_pair, shallow_pair


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_pack_cache()
    yield
    clear_plan_cache()
    clear_pack_cache()


def random_graph(seed: int, n_dffs: int = 3, n_gates: int = 30) -> CircuitGraph:
    return build_graph(seed, 4, n_dffs, n_gates)


def graph_num_edges(graph: CircuitGraph) -> int:
    # A pack's union graph has no netlist; count from its fanin arrays.
    return int((graph.fanin0 >= 0).sum() + (graph.fanin1 >= 0).sum())


GRAPH_ARRAYS = (
    "type_index", "features", "fanin0", "fanin1", "pi_ids", "and_ids",
    "not_ids", "dff_ids", "po_ids", "dff_src", "level", "reverse_level",
)


def assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_batches(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in ("nodes", "src", "dst_local"):
            assert_same_array(getattr(a, field), getattr(b, field))


class TestPackRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
        n_gates=st.integers(10, 60),
    )
    def test_union_round_trips_node_and_edge_counts(self, seeds, n_gates):
        graphs = [random_graph(seed, n_gates=n_gates) for seed in seeds]
        packed = pack_graphs(graphs, cache=False)
        assert packed.num_members == len(graphs)
        assert packed.num_nodes == sum(g.num_nodes for g in graphs)
        assert graph_num_edges(packed.plan.graph) == sum(
            graph_num_edges(g) for g in graphs
        )
        assert packed.sizes == tuple(g.num_nodes for g in graphs)

    @settings(max_examples=15, deadline=None)
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=5))
    def test_member_slices_tile_the_union(self, seeds):
        graphs = [random_graph(seed) for seed in seeds]
        packed = pack_graphs(graphs, cache=False)
        covered = np.zeros(packed.num_nodes, dtype=bool)
        for k, graph in enumerate(graphs):
            sl = packed.member_slice(k)
            assert sl.stop - sl.start == graph.num_nodes
            assert not covered[sl].any()
            covered[sl] = True
            # Per-member features survive the union unchanged.
            assert np.array_equal(
                packed.plan.graph.features[sl], graph.features
            )
        assert covered.all()

    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=8),
        n_gates=st.integers(5, 60),
        with_edge_cases=st.booleans(),
    )
    def test_array_union_equals_union_netlist_graph(
        self, seeds, n_gates, with_edge_cases
    ):
        """The pack's union graph is concatenated arrays; the reference is
        the graph of the union *netlist* built node by node."""
        graphs = [random_graph(seed, n_gates=n_gates) for seed in seeds]
        if with_edge_cases:
            graphs[1:1] = [shallow_pair()[0], dff_chain_pair()[0]]
        plan = pack_graphs(graphs, cache=False).plan
        union = disjoint_union([g.netlist for g in graphs]).union
        want = plan_for(CircuitGraph(union), cache=False)
        assert plan.graph.netlist is None
        assert plan.key == want.key == union.fingerprint()
        for name in GRAPH_ARRAYS:
            assert_same_array(getattr(plan.graph, name), getattr(want.graph, name))
        assert_same_batches(plan.graph.forward_batches, want.graph.forward_batches)
        assert_same_batches(plan.graph.reverse_batches, want.graph.reverse_batches)
        for custom in (True, False):
            for got, ref in zip(plan.schedule(custom), want.schedule(custom)):
                assert_same_batches(got, ref)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
    def test_pack_of_identical_members_replicates_features(self, seed, k):
        graph = random_graph(seed)
        packed = pack_graphs([graph] * k, cache=False)
        assert packed.num_nodes == k * graph.num_nodes
        assert len(set(packed.member_keys)) == 1


class TestPlanCacheProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fingerprint_equal_netlists_share_one_plan(self, seed):
        # Two independent builds of the same seed: equal structure, equal
        # fingerprint, different objects (the second build deliberately
        # bypasses the memoized factory to get a distinct graph object).
        g1 = random_graph(seed)
        g2 = CircuitGraph(g1.netlist.copy())
        assert g1 is not g2
        assert fingerprint_of(g1) == fingerprint_of(g2)
        p1 = plan_for(g1)
        p2 = plan_for(g2)
        assert p1 is p2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), custom=st.booleans())
    def test_lru_hits_return_identical_schedules(self, seed, custom):
        first = plan_for(random_graph(seed)).schedule(custom=custom)
        again = plan_for(random_graph(seed)).schedule(custom=custom)
        assert first is again  # the memoized tuple itself, not a copy
        fwd, rev = first
        for batch in fwd + rev:
            assert batch.num_nodes > 0
            assert batch.num_edges > 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), custom=st.booleans())
    def test_feature_rows_align_with_schedule(self, seed, custom):
        plan = plan_for(random_graph(seed))
        fwd, rev = plan.schedule(custom=custom)
        fwd_rows, rev_rows = plan.feature_rows(custom, np.float64)
        assert len(fwd_rows) == len(fwd) and len(rev_rows) == len(rev)
        feats = plan.features(np.float64)
        for batch, rows in zip(fwd + rev, fwd_rows + rev_rows):
            assert np.array_equal(rows, feats[batch.nodes])
        # Cached: the second call returns the same tuples.
        assert plan.feature_rows(custom, np.float64)[0] is fwd_rows

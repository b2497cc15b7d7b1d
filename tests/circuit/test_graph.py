"""Tests for the learning-graph view (repro.circuit.graph)."""

import operator
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import to_aig
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
import repro.circuit.graph as graph_module
from repro.circuit.graph import CircuitGraph, edge_batches
from repro.circuit.levelize import levelize
from repro.circuit.netlist import GATE_TYPES, Netlist, NetlistError
from repro.data import DataFactory, FactoryConfig
from repro.runtime.plan import baseline_batches
from repro.sim.logicsim import SimConfig


@pytest.fixture()
def graph() -> CircuitGraph:
    nl = random_sequential_netlist(
        GeneratorConfig(n_pis=5, n_dffs=4, n_gates=40), seed=8
    )
    return CircuitGraph(to_aig(nl).aig)


class TestConstruction:
    def test_rejects_non_aig(self):
        nl = Netlist()
        a, b = nl.add_pi(), nl.add_pi()
        nl.add_gate(GateType.OR, [a, b])
        with pytest.raises(NetlistError, match="AIG"):
            CircuitGraph(nl)

    def test_features_one_hot(self, graph):
        assert graph.features.shape == (graph.num_nodes, 4)
        assert (graph.features.sum(axis=1) == 1.0).all()
        assert (
            graph.features[np.arange(graph.num_nodes), graph.type_index] == 1.0
        ).all()

    def test_fanin_arrays(self, graph):
        nl = graph.netlist
        for i in nl.nodes():
            fs = nl.fanins(i)
            if len(fs) >= 1:
                assert graph.fanin0[i] == fs[0]
            else:
                assert graph.fanin0[i] == -1
            if len(fs) == 2:
                assert graph.fanin1[i] == fs[1]
            else:
                assert graph.fanin1[i] == -1

    def test_dff_src_matches_netlist(self, graph):
        nl = graph.netlist
        for d, s in zip(graph.dff_ids, graph.dff_src):
            assert nl.fanins(int(d)) == (int(s),)


class TestForwardBatches:
    def test_cover_all_comb_gates_once(self, graph):
        nodes = np.concatenate([b.nodes for b in graph.forward_batches])
        comb = np.concatenate([graph.and_ids, graph.not_ids])
        assert sorted(nodes.tolist()) == sorted(comb.tolist())

    def test_edges_match_fanins(self, graph):
        for batch in graph.forward_batches:
            for src, dst_local in zip(batch.src, batch.dst_local):
                node = batch.nodes[dst_local]
                assert src in graph.netlist.fanins(int(node))

    def test_edge_counts(self, graph):
        total = sum(b.num_edges for b in graph.forward_batches)
        expected = 2 * graph.and_ids.size + graph.not_ids.size
        assert total == expected

    def test_sources_precede_batch(self, graph):
        # Every message source lives at a strictly lower level.
        for batch in graph.forward_batches:
            for src, dst_local in zip(batch.src, batch.dst_local):
                node = batch.nodes[dst_local]
                assert graph.level[src] < graph.level[node]


class TestReverseBatches:
    def test_no_messages_from_dffs_to_data_sources(self, graph):
        dffs = set(int(d) for d in graph.dff_ids)
        for batch in graph.reverse_batches:
            assert not (set(batch.src.tolist()) & dffs)

    def test_edges_are_fanouts(self, graph):
        fanouts = graph.netlist.fanouts()
        for batch in graph.reverse_batches:
            for src, dst_local in zip(batch.src, batch.dst_local):
                node = int(batch.nodes[dst_local])
                assert int(src) in fanouts[node]

    def test_cover_all_comb_gates(self, graph):
        nodes = np.concatenate([b.nodes for b in graph.reverse_batches])
        comb = np.concatenate([graph.and_ids, graph.not_ids])
        assert sorted(nodes.tolist()) == sorted(comb.tolist())


class TestProperties:
    def test_counts(self, graph):
        nl = graph.netlist
        assert graph.num_pis == len(nl.pis)
        assert graph.num_dffs == len(nl.dffs)
        assert graph.num_nodes == len(nl)
        assert (graph.state_ids == graph.dff_ids).all()

    def test_repr_mentions_name(self, graph):
        assert graph.netlist.name in repr(graph)


def same_batches(got, want) -> bool:
    return len(got) == len(want) and all(
        all(
            np.array_equal(a, b) and a.dtype == b.dtype
            for a, b in ((g.nodes, w.nodes), (g.src, w.src), (g.dst_local, w.dst_local))
        )
        for g, w in zip(got, want)
    )


@contextmanager
def counted_builds():
    """Count the ``edge_batches`` calls ``repro.circuit.graph`` makes."""
    calls = []

    def counting(*args):
        calls.append(1)
        return edge_batches(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "edge_batches", counting)
        yield calls


def aig(seed: int, n_dffs: int = 3) -> Netlist:
    nl = random_sequential_netlist(
        GeneratorConfig(n_pis=4, n_dffs=n_dffs, n_gates=30), seed=seed
    )
    return to_aig(nl).aig


class TestLazyBatches:
    """A graph builds its edge batches on first read, once per lowering."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n_dffs=st.integers(0, 4))
    def test_equal_edge_batches_over_the_levelization(self, seed, n_dffs):
        nl = aig(seed, n_dffs)
        with counted_builds() as calls:
            graph = CircuitGraph(nl)
            assert not calls
            forward, reverse = graph.forward_batches, graph.reverse_batches
            assert len(calls) == 2
        s, lv = graph.structure, levelize(nl)
        cut_fanouts = s.adjacency(cut=True)[1]
        assert same_batches(forward, edge_batches(lv.comb_forward, s.fanin_ptr, s.fanin_idx))
        assert same_batches(reverse, edge_batches(lv.comb_reverse, *cut_fanouts))
        # the baseline schedule reads the same lazily built groups
        base_forward, base_reverse = baseline_batches(graph)
        dffs = 1 if graph.num_dffs else 0
        assert same_batches(base_forward[dffs:], forward)
        uncut_fanouts = s.adjacency(cut=False)[1]
        assert same_batches(base_reverse, edge_batches(lv.comb_reverse, *uncut_fanouts))

    def test_graphs_over_one_lowering_share_one_copy(self):
        nl = aig(3)
        with counted_builds() as calls:
            first, second = CircuitGraph(nl), CircuitGraph(nl)
            third = CircuitGraph(nl.structure())
            for name in ("forward_batches", "reverse_batches"):
                batches = getattr(first, name)
                for other in (second, third):
                    assert all(map(operator.is_, getattr(other, name), batches))
                # each read is a new list: editing one leaves the shared copy
                batches.clear()
                assert len(getattr(first, name)) == len(getattr(second, name)) > 0
        assert len(calls) == 2

    def test_baseline_schedule_builds_no_cut_reverse_batches(self):
        """The baseline reverse pass reads the uncut fan-outs over the
        levelization's reverse groups, so it never builds the cut graph's
        reverse batches; only a DeepSeq schedule reads those."""
        graph = CircuitGraph(aig(7))
        with counted_builds() as calls:
            baseline_batches(graph)
            assert len(calls) == 1  # the forward batches
            graph.reverse_batches
            assert len(calls) == 2

    @pytest.mark.parametrize("call", ["build", "build_reliability"])
    def test_factory_samples_build_no_batches(self, call):
        circuits = [aig(seed) for seed in range(3)]
        factory = DataFactory(FactoryConfig(workers=0))
        with counted_builds() as calls:
            samples = getattr(factory, call)(circuits, SimConfig(cycles=8, streams=2), seed=0)
        assert len(samples) == len(circuits)
        assert not calls

    def test_pickled_before_batches_exist(self):
        nl = aig(5)
        graph = CircuitGraph(nl)
        with counted_builds() as calls:
            clone = pickle.loads(pickle.dumps(graph))
            assert not calls
            assert same_batches(clone.forward_batches, graph.forward_batches)
            assert same_batches(clone.reverse_batches, graph.reverse_batches)
        assert len(calls) == 4  # one pair per lowering


class TestNodesOfType:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_equals_the_lowering_ids(self, seed):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=3, n_gates=30), seed=seed
        )
        structure = nl.structure()
        for gate_type in GATE_TYPES:
            got = nl.nodes_of_type(gate_type)
            assert type(got) is list
            assert got == structure.ids(gate_type).tolist()
        assert nl.pis == structure.ids(GateType.PI).tolist()
        assert nl.dffs == structure.ids(GateType.DFF).tolist()
        both = nl.nodes_of_type(GateType.DFF, GateType.PI)
        assert both == sorted(nl.pis + nl.dffs)

    def test_answers_before_the_dff_fanin_is_patched(self):
        nl = Netlist()
        a = nl.add_pi()
        ff = nl.add_dff(None)
        g = nl.add_gate(GateType.AND, [a, ff])
        with pytest.raises(NetlistError):
            nl.structure()
        assert nl.pis == [a]
        assert nl.dffs == [ff]
        assert nl.nodes_of_type(GateType.AND, GateType.PI) == [a, g]
        nl.set_fanins(ff, [g])
        assert nl.dffs == nl.structure().ids(GateType.DFF).tolist()

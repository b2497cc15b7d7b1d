"""Hypothesis-driven properties of the netlist IR and its transforms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import to_aig
from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.levelize import levelize


def random_nl(seed: int, n_dffs: int = 3, n_gates: int = 25):
    return random_sequential_netlist(
        GeneratorConfig(n_pis=4, n_dffs=n_dffs, n_gates=n_gates), seed=seed
    )


class TestRoundTripProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_bench_roundtrip_preserves_everything(self, seed):
        nl = random_nl(seed)
        again = parse_bench(write_bench(nl))
        assert len(again) == len(nl)
        assert again.type_counts() == nl.type_counts()
        for node in nl.nodes():
            name = nl.node_name(node)
            other = again.node_by_name(name)
            assert [again.node_name(f) for f in again.fanins(other)] == [
                nl.node_name(f) for f in nl.fanins(node)
            ]
            assert (node in nl.pos) == (other in again.pos)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_double_lowering_stable(self, seed):
        nl = random_nl(seed)
        once = to_aig(nl).aig
        twice = to_aig(once).aig
        assert len(twice) == len(once), "lowering an AIG must be identity-sized"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_copy_equivalence(self, seed):
        nl = random_nl(seed)
        dup = nl.copy()
        assert len(dup) == len(nl)
        for node in nl.nodes():
            assert dup.fanins(node) == nl.fanins(node)
            assert dup.gate_type(node) == nl.gate_type(node)


class TestStructuralProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_fanout_fanin_duality(self, seed):
        nl = random_nl(seed)
        fanouts = nl.fanouts()
        # edge (u -> v) appears in v's fanins iff v appears in u's fanouts,
        # with multiplicity.
        for v in nl.nodes():
            for u in nl.fanins(v):
                assert fanouts[u].count(v) == nl.fanins(v).count(u)
        total = sum(len(f) for f in fanouts)
        assert total == nl.num_edges

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_aig_lowering_grows_monotonically(self, seed):
        nl = random_nl(seed)
        aig = to_aig(nl).aig
        assert len(aig) >= len(nl.pis) + len(nl.dffs)
        assert len(aig.pis) == len(nl.pis)
        assert len(aig.dffs) == len(nl.dffs)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000), n_dffs=st.integers(0, 6))
    def test_levelization_idempotent(self, seed, n_dffs):
        nl = random_nl(seed, n_dffs=n_dffs)
        a = levelize(nl)
        b = levelize(nl)
        assert (a.level == b.level).all()
        assert (a.reverse_level == b.reverse_level).all()

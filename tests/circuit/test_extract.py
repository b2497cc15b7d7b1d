"""Tests for sub-circuit extraction (repro.circuit.extract)."""

import numpy as np
import pytest

from repro.circuit.extract import extract_dataset, extract_subcircuit
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist


@pytest.fixture()
def parent():
    return random_sequential_netlist(
        GeneratorConfig(n_pis=8, n_dffs=8, n_gates=200), seed=13
    )


class TestExtractSubcircuit:
    def test_respects_budget(self, parent):
        rng = np.random.default_rng(0)
        sub = extract_subcircuit(parent, seed_node=50, target_nodes=40, rng=rng)
        sub.validate()
        # Boundary PIs may push past the budget slightly.
        assert len(sub) <= 40 + len(sub.pis)

    def test_result_valid_and_observable(self, parent):
        sub = extract_subcircuit(parent, seed_node=100, target_nodes=60)
        sub.validate()
        assert sub.pos

    def test_small_budget(self, parent):
        sub = extract_subcircuit(parent, seed_node=30, target_nodes=5)
        sub.validate()
        assert len(sub) >= 1

    def test_keeps_dff_loops_when_budget_allows(self, parent):
        dff = parent.dffs[0]
        sub = extract_subcircuit(parent, seed_node=dff, target_nodes=100)
        sub.validate()
        # The seed DFF survives with a real (non-PI) data input whenever its
        # source made it into the cut.
        assert sub.dffs


class TestExtractDataset:
    def test_count_and_sizes(self, parent):
        subs = extract_dataset(parent, count=5, size_range=(20, 50), seed=1)
        assert len(subs) == 5
        for sub in subs:
            sub.validate()

    def test_unique_names(self, parent):
        subs = extract_dataset(parent, count=4, size_range=(20, 40), seed=2)
        assert len({s.name for s in subs}) == 4

    def test_deterministic(self, parent):
        a = extract_dataset(parent, count=3, size_range=(20, 40), seed=3)
        b = extract_dataset(parent, count=3, size_range=(20, 40), seed=3)
        assert [len(x) for x in a] == [len(x) for x in b]

    def test_rejects_gateless_netlist(self):
        from repro.circuit.netlist import Netlist

        nl = Netlist("pis_only")
        nl.add_pi()
        with pytest.raises(ValueError):
            extract_dataset(nl, count=1, size_range=(5, 10))

"""Tests for the netlist IR (repro.circuit.netlist)."""

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError


def toggle_circuit() -> Netlist:
    """a --AND(g)-- ff loop through an inverter."""
    nl = Netlist("toggle")
    a = nl.add_pi("a")
    ff = nl.add_dff(None, "ff")
    inv = nl.add_gate(GateType.NOT, [ff], "inv")
    g = nl.add_gate(GateType.AND, [a, inv], "g")
    nl.set_fanins(ff, [g])
    nl.add_po(g)
    nl.validate()
    return nl


class TestConstruction:
    def test_ids_are_sequential(self):
        nl = Netlist()
        assert nl.add_pi() == 0
        assert nl.add_pi() == 1
        assert nl.add_gate(GateType.AND, [0, 1]) == 2

    def test_len_and_counts(self):
        nl = toggle_circuit()
        assert len(nl) == 4
        assert nl.num_edges == 4  # inv<-ff, g<-a, g<-inv, ff<-g
        counts = nl.type_counts()
        assert counts[GateType.PI] == 1
        assert counts[GateType.DFF] == 1

    def test_duplicate_name_rejected(self):
        nl = Netlist()
        nl.add_pi("x")
        with pytest.raises(NetlistError):
            nl.add_pi("x")

    def test_node_by_name(self):
        nl = toggle_circuit()
        assert nl.node_by_name("ff") == 1
        with pytest.raises(NetlistError):
            nl.node_by_name("missing")

    def test_default_names_unique(self):
        nl = Netlist()
        ids = [nl.add_pi() for _ in range(5)]
        names = {nl.node_name(i) for i in ids}
        assert len(names) == 5

    def test_po_registration(self):
        nl = toggle_circuit()
        assert nl.pos == [3]
        nl.add_po(3)  # idempotent
        assert nl.pos == [3]
        with pytest.raises(NetlistError):
            nl.add_po(99)


class TestValidation:
    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError):
            Netlist().validate()

    def test_dangling_dff_rejected(self):
        nl = Netlist()
        nl.add_pi("a")
        nl.add_dff(None, "ff")
        with pytest.raises(NetlistError, match="DFF"):
            nl.validate()

    def test_combinational_cycle_rejected(self):
        nl = Netlist()
        a = nl.add_pi("a")
        g1 = nl.add_gate(GateType.AND, [], "g1")
        g2 = nl.add_gate(GateType.AND, [g1, a], "g2")
        nl.set_fanins(g1, [g2, a])
        with pytest.raises(NetlistError, match="cycle"):
            nl.validate()

    def test_cycle_through_dff_accepted(self):
        toggle_circuit()  # validates internally

    def test_out_of_range_fanin_rejected(self):
        nl = Netlist()
        nl.add_pi("a")
        nl.add_gate(GateType.NOT, [7], "bad")
        with pytest.raises(NetlistError, match="out-of-range"):
            nl.validate()

    def test_unwired_gate_rejected_at_validate(self):
        nl = Netlist()
        nl.add_pi("a")
        nl.add_gate(GateType.NOT, [], "pending")
        with pytest.raises(NetlistError):
            nl.validate()

    def test_wrong_arity_rejected_eagerly(self):
        nl = Netlist()
        a = nl.add_pi("a")
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.MUX, [a, a], "m")
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.NOT, [a, a], "n")


class TestAccessors:
    def test_fanouts(self):
        nl = toggle_circuit()
        fo = nl.fanouts()
        inv, g = nl.node_by_name("inv"), nl.node_by_name("g")
        ff = nl.node_by_name("ff")
        assert fo[ff] == [inv]
        assert g in fo[inv]

    def test_is_aig(self):
        nl = toggle_circuit()
        assert nl.is_aig()
        nl2 = Netlist()
        a, b = nl2.add_pi(), nl2.add_pi()
        nl2.add_gate(GateType.OR, [a, b])
        assert not nl2.is_aig()

    def test_three_input_and_is_not_aig(self):
        nl = Netlist()
        pis = [nl.add_pi() for _ in range(3)]
        nl.add_gate(GateType.AND, pis)
        assert not nl.is_aig()

    def test_nodes_of_type(self):
        nl = toggle_circuit()
        assert nl.nodes_of_type(GateType.AND) == [3]
        assert nl.nodes_of_type(GateType.PI, GateType.DFF) == [0, 1]


class TestCopy:
    def test_copy_is_independent(self):
        nl = toggle_circuit()
        dup = nl.copy()
        dup.add_pi("extra")
        assert len(dup) == len(nl) + 1

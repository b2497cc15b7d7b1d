"""The one structural lowering (``Netlist.structure()``) and its inverse
(``Netlist.from_structure``): memo hygiene, the single cut-graph sort, and
the errors every entry point shares."""

import ast
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import repro
from repro.circuit.aiger import write_aiger_file
from repro.circuit.benchmarks import family_subcircuits, load_design
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.graph import CircuitGraph
from repro.circuit.levelize import levelize
from repro.circuit.netlist import GATE_TYPES, Netlist, NetlistError, Structure
from repro.runtime.plan import plan_for
from repro.sim.logicsim import SimConfig, compile_netlist
from repro.train.dataset import build_dataset

from tests.conftest import build_graph

SRC = Path(repro.__file__).resolve().parent


def test_type_codes_are_the_enum_order():
    """Shards on disk store ``Structure.type_code``; the order is frozen."""
    assert GATE_TYPES == tuple(GateType)


def toggle() -> Netlist:
    nl = Netlist("toggle")
    a = nl.add_pi("a")
    ff = nl.add_dff(None, "state")
    inv = nl.add_gate(GateType.NOT, [ff], "inv")
    g = nl.add_gate(GateType.AND, [a, inv], "g")
    nl.set_fanins(ff, [g])
    nl.add_po(g)
    return nl


def rebuilt(nl: Netlist) -> Netlist:
    """``nl`` again, node by node through the public API."""
    out = Netlist(nl.name)
    for node in nl.nodes():
        if nl.gate_type(node) is GateType.DFF:
            out.add_dff(None, nl.node_name(node))
        else:
            out.add_gate(nl.gate_type(node), (), nl.node_name(node))
    for node in nl.nodes():
        out.set_fanins(node, nl.fanins(node))
    for po in nl.pos:
        out.add_po(po)
    return out


def observed(nl: Netlist):
    """Everything memoized, or the error asking for it raises."""
    try:
        lv = levelize(nl)
    except NetlistError as exc:
        return str(exc)
    groups = lv.forward_order + lv.reverse_order + lv.comb_forward + lv.comb_reverse
    return (
        nl.fingerprint(),
        nl.is_aig(),
        lv.level.tolist(),
        lv.reverse_level.tolist(),
        [g.tolist() for g in groups],
    )


class TestMemoHygiene:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["gate", "dff_loop", "rewire", "po", "same_po"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_after_any_edit_equals_a_fresh_rebuild(self, seed, edits):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=3, n_dffs=2, n_gates=10), seed=seed
        )
        assert observed(nl) == observed(rebuilt(nl))
        for kind, x, y in edits:
            n = len(nl)
            if kind == "gate":
                nl.add_gate(GateType.AND, [x % n, y % n])
            elif kind == "dff_loop":
                ff = nl.add_dff(None)
                inv = nl.add_gate(GateType.NOT, [ff])
                nl.set_fanins(ff, [inv])
            elif kind == "rewire":  # may close a combinational cycle
                node = x % n
                arity = len(nl.fanins(node))
                nl.set_fanins(node, [(y + k) % n for k in range(arity)])
            elif kind == "po":
                nl.add_po(x % n)
            else:
                nl.add_po(nl.pos[x % len(nl.pos)])
            assert observed(nl) == observed(rebuilt(nl))

    def test_every_mutator_drops_the_memo(self):
        nl = toggle()
        for edit in (
            lambda: nl.add_gate(GateType.NOT, [0]),
            lambda: nl.add_pi(),
            lambda: nl.add_dff(0),
            lambda: nl.set_fanins(2, [3]),
            lambda: nl.add_po(2),
        ):
            kept = nl.structure()
            assert nl.structure() is kept
            edit()
            assert nl._structure is None
            assert nl.structure() is not kept

    def test_copy_starts_clean(self):
        nl = toggle()
        levelize(nl)
        assert nl.copy()._structure is None
        assert nl._structure is not None

    def test_pickle_carries_no_memo(self):
        nl = family_subcircuits("iscas89", 1, seed=3)[0]
        before = pickle.dumps(nl)
        levelize(nl)
        nl.fingerprint()
        CircuitGraph(nl)
        assert pickle.dumps(nl) == before
        assert pickle.loads(before)._structure is None

    def test_shared_arrays_are_read_only(self):
        graph = build_graph(3)
        structure = graph.structure
        lv = levelize(structure)
        (a, b), (c, d) = structure.adjacency(cut=True)
        arrays = [
            structure.type_code, structure.fanin_ptr, structure.fanin_idx,
            structure.pos, lv.level, lv.reverse_level, a, b, c, d,
            graph.level, graph.type_index, graph.po_ids,
            *lv.forward_order, *lv.reverse_order,
            *lv.comb_forward, *lv.comb_reverse,
            *(
                arr
                for b in graph.forward_batches + graph.reverse_batches
                for arr in (b.nodes, b.src, b.dst_local)
            ),
        ]
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            graph.level[0] = 7


def long_cycle(length: int) -> Netlist:
    nl = Netlist("ring")
    a = nl.add_pi("a")
    first = nl.add_gate(GateType.AND, [], "g0")
    prev = first
    for k in range(1, length):
        prev = nl.add_gate(GateType.NOT, [prev], f"g{k}")
    nl.set_fanins(first, [a, prev])
    nl.add_po(prev)
    return nl


ENTRY_POINTS = {
    "validate": Netlist.validate,
    "levelize": levelize,
    "graph": CircuitGraph,
    "compile": compile_netlist,
    "plan": lambda nl: plan_for(nl, cache=False),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestCycleError:
    def test_short_cycle_lists_its_nodes(self, entry):
        with pytest.raises(NetlistError) as err:
            ENTRY_POINTS[entry](long_cycle(3))
        assert str(err.value) == "combinational cycle through nodes [1, 2, 3]"

    def test_long_cycle_lists_eight(self, entry):
        with pytest.raises(NetlistError) as err:
            ENTRY_POINTS[entry](long_cycle(12))
        assert str(err.value) == (
            "combinational cycle through nodes [1, 2, 3, 4, 5, 6, 7, 8]..."
        )


# ----------------------------------------------------------------------
# one sort, one lowering
# ----------------------------------------------------------------------
def _calls(path: Path, names: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    )


def test_array_consumers_never_walk_a_netlist():
    """The per-node loops this lowering replaced cannot grow back
    unnoticed: the structural consumers make no per-node netlist call."""
    per_node = {"nodes", "gate_type", "fanins", "fanouts", "nodes_of_type"}
    consumers = (
        "circuit/graph.py", "circuit/levelize.py", "sim/logicsim.py",
        "runtime/plan.py", "runtime/pack.py",
    )
    assert {name: _calls(SRC / name, per_node) for name in consumers} == {
        name: [] for name in consumers
    }


def test_ingest_builds_netlists_from_arrays_only():
    """Everything that turns other data into a netlist hands arrays to
    ``Netlist.from_structure``: no node-by-node replay, no reach into the
    netlist's private containers."""
    edits = {"add_gate", "add_pi", "add_dff", "set_fanins", "add_po"}
    for name in ("circuit/aiger.py", "circuit/aig.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        private = sorted(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_nodes", "_names")
        )
        assert (_calls(SRC / name, edits), private) == ([], []), name


def test_runtime_builds_no_union_netlist():
    importers = [
        str(path.relative_to(SRC))
        for path in (SRC / "runtime").rglob("*.py")
        if "disjoint_union" in path.read_text()
    ]
    assert importers == []


class _Spy:
    """Records every lowered node list and every swept structure (the
    objects, so a collected one's ``id`` cannot be taken for another's)."""

    def __init__(self, monkeypatch) -> None:
        self.lowered: list[list] = []
        self.swept: list[Structure] = []
        lower, levels = Structure.lower.__func__, Structure._levels

        def spy_lower(cls, nodes, pos):
            self.lowered.append(nodes)
            return lower(cls, nodes, pos)

        def spy_levels(structure):
            self.swept.append(structure)
            return levels(structure)

        monkeypatch.setattr(Structure, "lower", classmethod(spy_lower))
        monkeypatch.setattr(Structure, "_levels", spy_levels)


def test_large_design_path_lowers_and_sorts_once(tmp_path, monkeypatch):
    path = tmp_path / "design.aig"
    write_aiger_file(family_subcircuits("itc99", 1, seed=1)[0], path)
    spy = _Spy(monkeypatch)
    design = load_design(path)  # read_aiger_file, then to_aig
    design.fingerprint()
    compile_netlist(design)
    plan_for(design, cache=False).schedule(True)
    # Both netlists were built from arrays: neither is ever lowered, and
    # each one's levels are computed once (the raw one's by the reader).
    assert spy.lowered == []
    assert len(spy.swept) == 2
    assert [x is design.structure() for x in spy.swept].count(True) == 1


def test_build_dataset_lowers_and_sorts_once_per_circuit(monkeypatch):
    circuits = [nl.copy() for nl in family_subcircuits("iscas89", 3, seed=2)]
    spy = _Spy(monkeypatch)
    build_dataset(circuits, SimConfig(cycles=8, streams=64, seed=0))
    assert sorted(map(id, spy.lowered)) == sorted(id(nl._nodes) for nl in circuits)
    assert sorted(map(id, spy.swept)) == sorted(id(nl.structure()) for nl in circuits)


# ----------------------------------------------------------------------
# arrays -> netlist
# ----------------------------------------------------------------------
class TestFromStructure:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n_dffs=st.integers(0, 4),
        n_gates=st.integers(1, 30),
        named=st.booleans(),
    )
    def test_equals_the_node_by_node_rebuild(self, seed, n_dffs, n_gates, named):
        nl = random_sequential_netlist(
            GeneratorConfig(n_pis=3, n_dffs=n_dffs, n_gates=n_gates), seed=seed
        )
        names = [nl.node_name(i) for i in nl.nodes()] if named else None
        built = Netlist.from_structure(nl.structure(), names, name=nl.name)
        assert built._structure is nl.structure()  # kept, never re-lowered
        assert [built.node_name(i) for i in built.nodes()] == (
            names or [f"n{i}" for i in nl.nodes()]
        )
        assert [(built.gate_type(i), built.fanins(i)) for i in built.nodes()] == [
            (nl.gate_type(i), nl.fanins(i)) for i in nl.nodes()
        ]
        reference = rebuilt(built)
        assert built._nodes == reference._nodes
        assert built._names == reference._names and built.pos == reference.pos == nl.pos
        assert pickle.dumps(built) == pickle.dumps(reference)
        assert built.fingerprint() == nl.fingerprint()
        assert observed(built) == observed(nl)
        built.add_po(0)  # still an ordinary, editable netlist
        assert built._structure is None and observed(built) == observed(rebuilt(built))

    def _arrays(self, nl: Netlist):
        s = nl.structure()
        return [s.type_code.copy(), s.fanin_ptr.copy(), s.fanin_idx.copy(), s.pos.copy()]

    def test_errors_are_the_lowering_errors(self):
        nl = toggle()
        names = [nl.node_name(i) for i in nl.nodes()]
        with pytest.raises(NetlistError, match="duplicate node name 'a'"):
            Netlist.from_structure(nl.structure(), ["a", "state", "a", "g"])
        with pytest.raises(NetlistError, match="3 names for 4 nodes"):
            Netlist.from_structure(nl.structure(), names[:3])

        code, ptr, idx, pos = self._arrays(nl)
        idx[0] = 9
        with pytest.raises(NetlistError) as err:
            Netlist.from_structure(Structure(code, ptr, idx, pos), names)
        assert str(err.value) == "node 1 (state) has out-of-range fanin 9"

        code, ptr, idx, pos = self._arrays(nl)
        with pytest.raises(NetlistError) as err:
            Netlist.from_structure(Structure(code, ptr, idx, np.array([3, 4])), names)
        assert str(err.value) == "PO references unknown node 4"
        with pytest.raises(NetlistError, match="listed twice"):
            Netlist.from_structure(Structure(code, ptr, idx, np.array([3, 3])), names)

        code, ptr, idx, pos = self._arrays(nl)
        code[3] = GATE_TYPES.index(GateType.NOT)  # a NOT with two fanins
        with pytest.raises(NetlistError) as err:
            Netlist.from_structure(Structure(code, ptr, idx, pos), names)
        assert str(err.value) == "node 3 NOT requires 1 fanins, got 2"

        code, ptr, idx, pos = self._arrays(nl)
        ptr[2:] -= 1  # the DFF loses its data input
        with pytest.raises(NetlistError) as err:
            Netlist.from_structure(Structure(code, ptr, idx[1:], pos), names)
        assert str(err.value) == "DFF 1 (state) has dangling/extra data input"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda code, ptr, idx, pos: (code, ptr[:-1], idx, pos),
            lambda code, ptr, idx, pos: (code, ptr, idx[:-1], pos),
            lambda code, ptr, idx, pos: (code, ptr[::-1].copy(), idx, pos),
            lambda code, ptr, idx, pos: (code + 100, ptr, idx, pos),
            lambda code, ptr, idx, pos: (code - 100, ptr, idx, pos),
        ],
    )
    def test_arrays_that_are_no_csr_are_refused(self, damage):
        with pytest.raises(NetlistError, match="do not describe a netlist"):
            Netlist.from_structure(Structure(*damage(*self._arrays(toggle()))))
        with pytest.raises(NetlistError, match="empty netlist"):
            empty = np.zeros(0, dtype=np.int64)
            Netlist.from_structure(
                Structure(empty.astype(np.int8), np.zeros(1, dtype=np.int64), empty, empty)
            )

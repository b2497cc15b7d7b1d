"""The array builders against their per-node references.

``to_aig`` lowers whole ``(gate type, arity)`` groups over structure
arrays and ``stitched_union`` concatenates member structures; the
node-by-node originals live in :mod:`tests.circuit.lowering_reference`.
Every array, every name and every ``fanout_of`` entry (in order) must
match.  The second half checks levels that were filled in without a
sweep against a fresh sweep, and that the forward-only ``validate`` still
names the nodes of a combinational cycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import to_aig
from repro.circuit.aiger import read_aiger, write_aiger
from repro.circuit.benchmarks import family_subcircuits
from repro.circuit.compose import Stitch, disjoint_union, stitched_union
from repro.circuit.gates import FANIN_ARITY, GateType
from repro.circuit.generate import (
    GeneratorConfig,
    HierarchicalConfig,
    hierarchical_netlist,
    random_sequential_netlist,
)
from repro.circuit.netlist import GATE_TYPES, Netlist, NetlistError, Structure

from tests.circuit import lowering_reference as reference

GATES = [t for t in GateType if t not in (GateType.PI, GateType.DFF)]


@st.composite
def library_netlists(draw) -> Netlist:
    """Random sequential netlists over the whole gate library: n-ary gates,
    MUX, BUF, NOT chains, DFF loops, constants with or without a PI, and
    sometimes one gate named ``""``."""
    nl = Netlist(draw(st.sampled_from(["rand", "x"])))
    signals = [nl.add_pi(f"p{i}") for i in range(draw(st.integers(0, 3)))]
    dffs = [nl.add_dff(None, f"f{i}") for i in range(draw(st.integers(0, 3)))]
    signals += dffs
    n_gates = draw(st.integers(1, 14))
    blank = draw(st.integers(-1, n_gates - 1))  # which gate is named ""
    for g in range(n_gates):
        gt = draw(st.sampled_from(GATES if signals else [GateType.CONST0, GateType.CONST1]))
        arity = FANIN_ARITY[gt]
        if arity is None:
            arity = draw(st.integers(2, 6))
        fanins = [draw(st.sampled_from(signals)) for _ in range(arity)]
        node = nl.add_gate(gt, fanins, "" if g == blank else f"g{g}")
        if gt is GateType.NOT and draw(st.booleans()):  # a NOT chain
            for k in range(draw(st.integers(1, 3))):
                node = nl.add_gate(GateType.NOT, [node], f"g{g}_not{k}")
        signals.append(node)
    for ff in dffs:
        nl.set_fanins(ff, [draw(st.sampled_from(signals))])
    for po in draw(st.lists(st.sampled_from(range(len(nl))), max_size=4, unique=True)):
        nl.add_po(po)
    return nl


def arrays(nl: Netlist) -> list[list[int]]:
    s = nl.structure()
    return [a.tolist() for a in (s.type_code, s.fanin_ptr, s.fanin_idx, s.pos)]


def assert_same_lowering(got, want) -> None:
    assert arrays(got.aig) == arrays(want.aig)
    assert got.aig.node_names() == want.aig.node_names()
    assert got.aig.name == want.aig.name
    assert list(got.fanout_of.items()) == list(want.fanout_of.items())


class TestToAigAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(nl=library_netlists())
    def test_library_netlists(self, nl):
        assert_same_lowering(to_aig(nl), reference.to_aig(nl))

    @settings(max_examples=150, deadline=None)
    @given(nl=library_netlists())
    def test_lowering_an_aig_is_a_renumbering(self, nl):
        aig = reference.to_aig(nl).aig
        got, want = to_aig(aig), reference.to_aig(aig)
        assert_same_lowering(got, want)
        assert len(got.aig) == len(aig)

    @pytest.mark.parametrize("seed", [1, 10])
    def test_hierarchical_design_and_its_aiger_read(self, seed):
        nl = hierarchical_netlist(HierarchicalConfig(n_clouds=1, cloud_gates=300), seed)
        assert_same_lowering(to_aig(nl), reference.to_aig(nl))
        raw = read_aiger(write_aiger(to_aig(nl).aig, binary=True))
        assert_same_lowering(to_aig(raw), reference.to_aig(raw))

    def test_cycle_error_is_the_same(self):
        nl = Netlist("ring")
        a = nl.add_pi("a")
        g = nl.add_gate(GateType.OR, [], "g")
        h = nl.add_gate(GateType.XOR, [g, a], "h")
        nl.set_fanins(g, [a, h])
        with pytest.raises(NetlistError) as want:
            reference.to_aig(nl)
        with pytest.raises(NetlistError) as got:
            to_aig(nl)
        assert str(got.value) == str(want.value)


def members(seed: int, count: int) -> list[Netlist]:
    return [
        random_sequential_netlist(
            GeneratorConfig(n_pis=4, n_dffs=2, n_gates=12), seed=seed + k
        )
        for k in range(count)
    ]


class TestStitchedUnionAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 4),
        picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=12),
    )
    def test_random_stitches(self, seed, count, picks):
        nls = members(seed, count)
        stitches, taken = [], set()
        for k, (a, b) in enumerate(picks):
            dst = 1 + k % max(count - 1, 1)
            if dst >= count:
                continue
            pi = nls[dst].pis[a % len(nls[dst].pis)]
            if (dst, pi) in taken:
                continue
            taken.add((dst, pi))
            src = b % dst
            stitches.append(Stitch(src, (a * 7 + b) % len(nls[src]), dst, pi))
        got = stitched_union(nls, stitches, name="u")
        want = reference.stitched_union(nls, stitches, name="u")
        assert got.sizes == want.sizes and got.offsets == want.offsets
        assert arrays(got.union) == arrays(want.union)
        assert got.union.node_names() == want.union.node_names()
        assert got.union.name == want.union.name

    def test_adjacent_stitched_pis(self):
        """Every PI of the later members stitched: adjacent PI rows share a
        fanin offset, so their inserted fanins keep node order."""
        nls = members(21, 3)
        stitches = [
            Stitch(pi % dst, (7 * dst + pi) % len(nls[pi % dst]), dst, pi)
            for dst in (2, 1)
            for pi in nls[dst].pis
        ]
        got = stitched_union(nls, stitches)
        want = reference.stitched_union(nls, stitches)
        assert arrays(got.union) == arrays(want.union)
        assert got.union.node_names() == want.union.node_names()
        assert got.union.pis == nls[0].pis


# ----------------------------------------------------------------------
# levels filled in without a sweep
# ----------------------------------------------------------------------
def arrays_of(s: Structure) -> tuple[np.ndarray, ...]:
    return s.type_code, s.fanin_ptr, s.fanin_idx, s.pos


def fresh_levels(s: Structure) -> tuple[list[int], list[int]]:
    """The levels of a structure that shares nothing with ``s``."""
    copy = Structure(*(a.copy() for a in arrays_of(s)))
    return tuple(lv.tolist() for lv in copy.levels())


def carried(s: Structure) -> tuple[list[int], list[int]]:
    assert "renumbered_from" in s._memo or "forward" in s._memo
    return tuple(lv.tolist() for lv in s.levels())


class TestCarriedLevels:
    @settings(max_examples=60, deadline=None)
    @given(nl=library_netlists(), reverse_known=st.booleans())
    def test_to_aig_renumbering(self, nl, reverse_known):
        aig = to_aig(nl).aig
        if reverse_known:
            aig.structure().levels()
        out = to_aig(aig).aig.structure()
        assert out._memo.keys() >= {"forward"}  # validated without a sweep
        assert ("reverse" in out._memo) == reverse_known
        assert carried(out) == fresh_levels(out)

    @pytest.mark.parametrize("reverse_known", [False, True])
    def test_concat(self, reverse_known):
        parts = [
            Structure(*(a.copy() for a in arrays_of(nl.structure())))
            for nl in family_subcircuits("iscas89", 3, seed=4)
        ]
        for p in parts:
            p.levels() if reverse_known else p.forward_levels()
        union = Structure.concat(parts)
        assert ("reverse" in union._memo) == reverse_known
        assert carried(union) == fresh_levels(union)

    def test_disjoint_union_keeps_concatenated_levels(self):
        union = disjoint_union(members(5, 3)).union.structure()
        assert carried(union) == fresh_levels(union)

    def test_stitched_union_sweeps_its_own(self):
        nls = members(8, 3)
        stitches = [Stitch(0, 10, 1, nls[1].pis[0]), Stitch(1, 15, 2, nls[2].pis[3])]
        union = stitched_union(nls, stitches).union.structure()
        assert carried(union) == fresh_levels(union)
        assert union.levels()[0].tolist() != Structure.concat(
            [nl.structure() for nl in nls]
        ).forward_levels().tolist()


class TestForwardOnlyValidate:
    def test_cycle_built_from_arrays_is_named(self):
        # a -> g1 = AND(a, g3) -> g2 = NOT(g1) -> g3 = NOT(g2) -> g1
        code = np.array(
            [GATE_TYPES.index(t) for t in (GateType.PI, GateType.AND, GateType.NOT, GateType.NOT)],
            dtype=np.int8,
        )
        s = Structure(code, np.array([0, 0, 2, 3, 4]), np.array([0, 3, 1, 2]), np.array([3]))
        nl = Netlist.from_structure(s)
        with pytest.raises(NetlistError) as err:
            nl.validate()
        assert str(err.value) == "combinational cycle through nodes [1, 2, 3]"
        assert "reverse" not in s._memo

    def test_validate_sweeps_forward_only(self):
        nl = family_subcircuits("itc99", 1, seed=2)[0]
        s = Structure(*(a.copy() for a in arrays_of(nl.structure())))
        Netlist.from_structure(s).validate()
        assert "forward" in s._memo and "reverse" not in s._memo


# ----------------------------------------------------------------------
# rows built on first use
# ----------------------------------------------------------------------
class TestLazyRows:
    def test_array_accessors_build_no_rows(self):
        nl = to_aig(family_subcircuits("iscas89", 1, seed=6, as_aig=False)[0]).aig
        s = nl.structure()
        assert (len(nl), nl.num_nodes, nl.num_edges) == (s.num_nodes,) * 2 + (s.fanin_idx.size,)
        assert nl.pis == s.ids(GateType.PI).tolist()
        assert nl.dffs == s.ids(GateType.DFF).tolist()
        assert nl.nodes_of_type(GateType.NOT, GateType.PI) == sorted(
            s.ids(GateType.NOT).tolist() + nl.pis
        )
        assert [nl.gate_type(i) for i in nl.nodes()] == [GATE_TYPES[c] for c in s.type_code]
        assert [nl.node_name(i) for i in nl.nodes()] == nl.node_names()
        assert "_nodes" not in vars(nl)
        nl.fanins(0)
        assert "_nodes" in vars(nl) and "_lazy_names" not in vars(nl)

    def test_racing_threads_share_one_row_list(self):
        import pickle
        import sys
        import threading

        nl = to_aig(family_subcircuits("itc99", 1, seed=7, as_aig=False)[0]).aig
        want = pickle.dumps(Netlist.from_structure(nl.structure(), nl.node_names(), nl.name))
        got, errors = [], []
        start = threading.Barrier(8)

        def worker(k: int) -> None:
            try:
                start.wait(timeout=10)
                got.append(pickle.dumps(nl) if k % 2 else nl.fanins(len(nl) - 1))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(g == want for g in got if isinstance(g, bytes))
        assert pickle.dumps(nl) == want and nl._nodes is vars(nl)["_nodes"]

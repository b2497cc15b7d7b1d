"""Tests for the AIGER frontend (repro.circuit.aiger).

Round-trips are checked at two strengths: *structural* (fingerprints of
re-read netlists match across formats and repeated trips) and *semantic*
(PO activity under simulation is unchanged).  A netlist fresh from memory
may serialize with a different AND ordering than its own read-back (NOT
node ids interleave among ANDs), so idempotence is asserted after one
trip — write(read(write(x))) == write(read(x)) — which is the invariant
external tools rely on.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.aig import to_aig
from repro.circuit.aiger import (
    read_aiger,
    read_aiger_file,
    write_aiger,
    write_aiger_file,
)
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist, NetlistError
from repro.sim.logicsim import SimConfig, simulate
from repro.sim.workload import Workload

TOGGLE = """aag 7 2 1 2 4
2
4
6 12
12
10
8 4 2
10 9 6
12 8 7
14 13 11
i0 en
i1 clr
l0 state
c
toggle
"""


def random_aig(seed: int, n_gates: int = 60) -> Netlist:
    nl = random_sequential_netlist(
        GeneratorConfig(n_pis=5, n_dffs=4, n_gates=n_gates, n_pos=3), seed=seed
    )
    return to_aig(nl).aig


def po_activity(nl: Netlist) -> list[tuple[float, float]]:
    """(logic_prob, toggle_rate) per PO in declaration order."""
    n_pis = len(nl.pis)
    wl = Workload(np.full(n_pis, 0.5), seed=3)
    res = simulate(nl, wl, SimConfig(cycles=64, streams=64, seed=1))
    return [
        (float(res.logic_prob[po]), float(res.toggle_rate[po])) for po in nl.pos
    ]


class TestReadAscii:
    def test_counts_and_names(self):
        nl = read_aiger(TOGGLE)
        assert len(nl.pis) == 2
        assert len(nl.dffs) == 1
        assert len(nl.pos) == 2
        assert nl.node_name(nl.pis[0]) == "en"
        assert nl.node_name(nl.pis[1]) == "clr"
        assert nl.node_name(nl.dffs[0]) == "state"
        assert nl.name == "toggle"

    def test_negated_literals_become_not_nodes(self):
        nl = read_aiger(TOGGLE)
        kinds = {nl.gate_type(n) for n in nl.nodes()}
        assert GateType.NOT in kinds and GateType.AND in kinds

    def test_const_literals(self):
        # PO wired to constant-false (literal 0) and constant-true (1).
        text = "aag 1 1 0 2 0\n2\n0\n1\n"
        nl = read_aiger(text)
        kinds = [nl.gate_type(po) for po in nl.pos]
        assert GateType.CONST0 in kinds and GateType.CONST1 in kinds

    def test_latch_init_one_rejected(self):
        text = "aag 2 1 1 1 0\n2\n4 2 1\n4\n"
        with pytest.raises(NetlistError, match="init"):
            read_aiger(text)

    def test_property_sections_rejected(self):
        text = "aag 1 1 0 1 0 1\n2\n2\n2\n"
        with pytest.raises(NetlistError, match="section"):
            read_aiger(text)

    def test_malformed_header_rejected(self):
        with pytest.raises(NetlistError):
            read_aiger("aag 1 1\n2\n")

    def test_non_numeric_header_field_rejected(self):
        with pytest.raises(NetlistError, match="header"):
            read_aiger("aag 1 1 0 1 0 x\n2\n2\n")


class TestReadBinary:
    @pytest.mark.parametrize(
        "counts, section",
        [
            ("300000000 300000000 0 0 0", "input"),
            ("300000000 0 300000000 0 0", "latch"),
            ("0 0 0 300000000 0", "output"),
            ("300000000 0 0 0 300000000", "AND"),
        ],
    )
    def test_counts_are_checked_against_the_document(self, counts, section):
        """A header alone must not make the reader build anything."""
        start = time.perf_counter()
        with pytest.raises(NetlistError, match=f"{section} section"):
            read_aiger(f"aig {counts}\n".encode())
        assert time.perf_counter() - start < 1.0

    def test_symbols_past_their_section_are_ignored(self):
        doc = b"aig 3 1 1 1 1\n2\n6\n\x02\x02i1 latch\nl1 gate\ni0 en\n"
        nl = read_aiger(doc)
        assert [nl.node_name(i) for i in nl.nodes()] == ["en", "l0", "a3"]
        assert read_aiger("aag 1 1 0 1 0\n2\n2\ni1 oops\nl0 oops\n").node_name(0) == "i0"

    def test_wide_deltas_round_trip(self):
        """Multi-byte LEB128 deltas: an AND of the first and last of 300 inputs."""
        nl = Netlist("wide")
        pis = [nl.add_pi(f"p{k}") for k in range(300)]
        nl.add_po(nl.add_gate(GateType.AND, [pis[0], pis[-1]], "g"))
        data = write_aiger(nl, binary=True)
        back = read_aiger(data)
        assert sorted(back.fanins(back.pos[0])) == [pis[0], pis[-1]]
        assert write_aiger(back, binary=True) == data


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_ascii_idempotent_after_one_trip(self, seed):
        t1 = write_aiger(random_aig(seed))
        t2 = write_aiger(read_aiger(t1))
        t3 = write_aiger(read_aiger(t2))
        assert t2 == t3

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_binary_idempotent(self, seed):
        b1 = write_aiger(read_aiger(write_aiger(random_aig(seed))), binary=True)
        b2 = write_aiger(read_aiger(b1), binary=True)
        assert b1 == b2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_formats_agree_structurally(self, seed):
        nl = random_aig(seed)
        via_ascii = read_aiger(write_aiger(nl))
        via_binary = read_aiger(write_aiger(nl, binary=True))
        assert via_ascii.fingerprint() == via_binary.fingerprint()

    @pytest.mark.parametrize("binary", [False, True])
    def test_semantics_preserved(self, binary):
        nl = random_aig(5)
        back = read_aiger(write_aiger(nl, binary=binary))
        assert po_activity(back) == po_activity(nl)

    def test_latches_survive(self):
        nl = random_aig(2)
        back = read_aiger(write_aiger(nl))
        assert len(back.dffs) == len(nl.dffs)
        assert len(back.pis) == len(nl.pis)

    def test_name_survives(self):
        nl = random_aig(1)
        assert read_aiger(write_aiger(nl)).name == nl.name
        assert read_aiger(write_aiger(nl, binary=True)).name == nl.name

    def test_symbols_survive(self):
        back = read_aiger(write_aiger(read_aiger(TOGGLE)))
        assert back.node_name(back.pis[0]) == "en"
        assert back.node_name(back.dffs[0]) == "state"


class TestWriter:
    def test_non_aig_gate_rejected(self):
        nl = Netlist("bad")
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        nl.add_po(nl.add_gate(GateType.XOR, [a, b], "x"))
        with pytest.raises(NetlistError, match="to_aig"):
            write_aiger(nl)

    def test_wide_and_rejected(self):
        nl = Netlist("wide")
        pis = [nl.add_pi(f"p{i}") for i in range(3)]
        nl.add_po(nl.add_gate(GateType.AND, pis, "a3"))
        with pytest.raises(NetlistError, match="to_aig"):
            write_aiger(nl)

    def test_binary_detected_by_sniff(self):
        data = write_aiger(random_aig(4), binary=True)
        assert data.startswith(b"aig ")
        assert read_aiger(data).validate() is None


class TestFiles:
    def test_suffix_selects_format(self, tmp_path):
        nl = random_aig(9)
        pa = tmp_path / "x.aag"
        pb = tmp_path / "x.aig"
        write_aiger_file(nl, pa)
        write_aiger_file(nl, pb)
        assert pa.read_bytes().startswith(b"aag ")
        assert pb.read_bytes().startswith(b"aig ")
        assert read_aiger_file(pa).fingerprint() == read_aiger_file(pb).fingerprint()

    def test_stem_names_anonymous_file(self, tmp_path):
        nl = random_aig(9)
        nl.name = "aiger"  # writer's comment carries the default name
        p = tmp_path / "mydesign.aag"
        write_aiger_file(nl, p)
        assert read_aiger_file(p).name == "mydesign"


# ----------------------------------------------------------------------
# hostile input
# ----------------------------------------------------------------------
def _fuzz_seeds() -> list[bytes]:
    docs: list[bytes] = [TOGGLE.encode()]
    for nl in (read_aiger(TOGGLE), random_aig(0, n_gates=25), random_aig(3, n_gates=12)):
        docs += [write_aiger(nl).encode(), write_aiger(nl, binary=True)]
    return docs


FUZZ_SEEDS = _fuzz_seeds()

_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("digit"), st.integers(0, 40), st.integers(0, 9)),
)


@settings(max_examples=300, deadline=2000)
@given(
    seed=st.sampled_from(FUZZ_SEEDS),
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
)
def test_mutated_documents_parse_or_raise_netlist_error(seed, mutations):
    """Bit rot, truncation and edited headers: the reader answers with a
    valid netlist or a ``NetlistError`` — never another exception, a hang
    or an allocation sized by a lie in the header."""
    doc = bytearray(seed)
    for kind, where, value in mutations:
        at = where % (len(doc) + 1)
        if kind == "set" and at < len(doc):
            doc[at] = value
        elif kind == "insert":
            doc.insert(at, value)
        elif kind == "delete":
            del doc[at : at + value]
        elif kind == "truncate":
            del doc[at:]
        elif kind == "digit" and where < len(doc) and chr(doc[where]).isdigit():
            doc[where] = ord(str(value))  # header counts live in the first bytes
    try:
        nl = read_aiger(bytes(doc))
    except NetlistError:
        return
    nl.validate()
    assert len(nl) >= 1

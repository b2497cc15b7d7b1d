"""Golden digests of everything that *builds* a netlist from other data.

The AIGER reader and writer, ``to_aig`` and ``strash`` decide node ids,
node names and PO order for every design that reaches the model from
outside.  The digests below were recorded at the commit
*before* those paths were moved onto ``Netlist.from_structure`` (PR 19)
and cover the four structure arrays, every node name and the netlist
name, plus the exact bytes ``write_aiger`` emits.

Re-record (only for a deliberate format change, with a ``CACHE_VERSION``
bump) with ``python -m tests.circuit.test_ingest_golden``.
"""

from functools import lru_cache

import pytest

from repro.circuit.aig import AigMapping, strash, to_aig
from repro.circuit.aiger import read_aiger, write_aiger
from repro.circuit.benchmarks import FAMILY_STATS, family_subcircuits
from repro.circuit.gates import GateType
from repro.circuit.generate import HierarchicalConfig, hierarchical_netlist
from repro.circuit.netlist import Netlist

from tests.circuit.test_aiger import TOGGLE
from tests.circuit.test_structure_golden import (
    _Digest,
    _constants_at_level_zero,
    _forward_references,
)
from tests.sim._engines import gate_zoo_netlist


def netlist_into(d: _Digest, nl: Netlist) -> None:
    s = nl.structure()
    d.arrays([s.type_code, s.fanin_ptr, s.fanin_idx, s.pos])
    d.text([nl.node_name(i) for i in nl.nodes()])
    d.text(nl.name)
    # The list accessors answer from the node objects, not the arrays.
    d.text([(nl.gate_type(i).value, nl.fanins(i)) for i in nl.nodes()])
    d.text((nl.pos, [nl.node_by_name(nl.node_name(i)) for i in nl.nodes()]))


def mapping_into(d: _Digest, m: AigMapping) -> None:
    netlist_into(d, m.aig)
    d.text(sorted(m.fanout_of.items()))


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def _smoke_raw() -> Netlist:
    """benchmarks/e2e's smoke-size hierarchical design before lowering."""
    return hierarchical_netlist(
        HierarchicalConfig(n_clouds=1, cloud_gates=400), seed=1
    )


def _writable_extras() -> Netlist:
    """Everything ``write_aiger`` folds away: BUF, NOT chains, constants."""
    nl = Netlist("extras")
    a = nl.add_pi("a")
    k0 = nl.add_gate(GateType.CONST0, [], "k0")
    k1 = nl.add_gate(GateType.CONST1, [], "k1")
    ff = nl.add_dff(None, "ff")
    b = nl.add_gate(GateType.BUF, [a], "b")
    n = nl.add_gate(GateType.NOT, [b], "n")
    nn = nl.add_gate(GateType.NOT, [n], "nn")
    g = nl.add_gate(GateType.AND, [nn, k1], "g")
    h = nl.add_gate(GateType.AND, [g, ff], "h")
    z = nl.add_gate(GateType.AND, [h, k0], "z")
    unused = nl.add_pi("unused")
    nl.set_fanins(ff, [n])
    for po in (h, k0, b, z, ff):
        nl.add_po(po)
    del unused
    return nl


def _consts_no_pi() -> Netlist:
    """Constants in a design without a PI: ``to_aig`` adds a tie input."""
    nl = Netlist("consts_no_pi")
    f0 = nl.add_dff(None, "f0")
    k1 = nl.add_gate(GateType.CONST1, [], "k1")
    k0 = nl.add_gate(GateType.CONST0, [], "k0")
    g = nl.add_gate(GateType.XOR, [f0, k1, k0], "g")
    m = nl.add_gate(GateType.MUX, [f0, k0, g], "m")
    w = nl.add_gate(GateType.NOR, [m, g, f0, k1, k0], "w")
    nl.set_fanins(f0, [m])
    nl.add_po(m)
    nl.add_po(k1)
    nl.add_po(w)
    return nl


@lru_cache(maxsize=None)
def aig_sources() -> dict[str, Netlist]:
    """AIG netlists the writer is pinned on; their documents pin the reader."""
    out: dict[str, Netlist] = {}
    for family in sorted(FAMILY_STATS):
        for k, nl in enumerate(family_subcircuits(family, 2, seed=0)):
            out[f"{family}_{k}"] = nl
    out["gate_zoo"] = to_aig(gate_zoo_netlist()).aig
    out["smoke_design"] = to_aig(_smoke_raw()).aig
    out["toggle"] = read_aiger(TOGGLE)
    out["extras"] = _writable_extras()
    out["forward_references"] = _forward_references()
    return out


#: Hand-written documents: constants in every position, explicit init 0,
#: gaps and forward references in the variable numbering, and symbol
#: tables that collide with each other and with generated names (both
#: formats resolve collisions alike: ``collide_bin`` reads as ``collide``).
_COLLIDE_BODY = "i0 x\ni1 x\nl0 a5\nl1 n2\nc\ncollide\n"
DOCUMENTS: dict[str, str | bytes] = {
    "toggle": TOGGLE,
    "const_outputs": "aag 1 1 0 2 0\n2\n0\n1\n",
    "const_only": "aag 0 0 0 1 0\n1\n",
    "const_everywhere": "aag 3 1 1 3 1\n2\n4 1\n6\n0\n6\n6 2 1\n",
    "const_everywhere_bin": b"aig 3 1 1 3 1\n1\n6\n0\n6\n\x04\x01",
    "init_zero": "aag 2 1 1 1 0\n2\n4 3 0\n4\n",
    "init_zero_bin": b"aig 2 1 1 1 0\n3 0\n4\n",
    "gaps_forward": "aag 9 1 0 2 2\n4\n18\n13\n18 13 4\n12 4 4\nc\n\n",
    "collide": "aag 5 2 2 3 1\n2\n4\n6 11\n8 1\n10\n0\n7\n10 6 5\n" + _COLLIDE_BODY,
    "collide_bin": b"aig 5 2 2 3 1\n11\n1\n10\n0\n7\n\x04\x01" + _COLLIDE_BODY.encode(),
    "collide_suffix": (
        "aag 4 3 0 2 1\n2\n4\n6\n8\n1\n8 3 6\ni0 x_0\ni1 x\ni2 x\nl0 ignored\n"
    ),
    "collide_swap_bin": (
        b"aig 3 2 0 1 1\n7\n\x02\x02"
        b"i0 i1\ni1 i0\ni0 again\ni1 const0\nnot a symbol\ni1\nc\n"
    ),
    "wide_delta_bin": (
        b"aig 130 129 0 1 1\n260\n\x82\x02\x00c\nlast input and itself\n"
    ),
}


@lru_cache(maxsize=None)
def lowering_sources() -> dict[str, Netlist]:
    """Raw extended-library netlists ``to_aig`` / ``strash`` are pinned on."""
    out: dict[str, Netlist] = {}
    for family in sorted(FAMILY_STATS):
        out[f"{family}_raw"] = family_subcircuits(family, 1, seed=5, as_aig=False)[0]
    out["gate_zoo"] = gate_zoo_netlist()
    out["smoke_raw"] = _smoke_raw()
    out["constants_with_pi"] = _constants_at_level_zero()
    out["constants_without_pi"] = _consts_no_pi()
    out["extras"] = _writable_extras()
    return out


def write_digest(nl: Netlist) -> str:
    d = _Digest()
    d.text(write_aiger(nl))
    d.text(write_aiger(nl, binary=True))
    return d.h.hexdigest()


def read_digest(nl: Netlist) -> str:
    """Both documents of ``nl`` read back, and the second trip's bytes."""
    d = _Digest()
    for binary in (False, True):
        back = read_aiger(write_aiger(nl, binary=binary))
        netlist_into(d, back)
        d.text(write_aiger(back, binary=binary))
    return d.h.hexdigest()


def document_digest(doc: str | bytes) -> str:
    d = _Digest()
    netlist_into(d, read_aiger(doc))
    netlist_into(d, read_aiger(doc, name="override"))
    return d.h.hexdigest()


def lowering_digest(nl: Netlist) -> str:
    d = _Digest()
    lowered = to_aig(nl)
    mapping_into(d, lowered)
    mapping_into(d, to_aig(lowered.aig, name="again"))
    mapping_into(d, strash(lowered.aig))
    return d.h.hexdigest()


def record() -> dict[str, str]:
    out = {f"write/{k}": write_digest(nl) for k, nl in aig_sources().items()}
    out.update({f"read/{k}": read_digest(nl) for k, nl in aig_sources().items()})
    out.update({f"document/{k}": document_digest(doc) for k, doc in DOCUMENTS.items()})
    out.update({f"lower/{k}": lowering_digest(nl) for k, nl in lowering_sources().items()})
    return out


GOLDEN: dict[str, str] = {
    "write/iscas89_0": "cccb9ba26f4cdf43bc96d1b9e6fae86292f7061788cdfec06304e363b666361d",
    "write/iscas89_1": "47dd6454d775fdad578cf87f0efd7445fe44aa3bde0dde7406a5ea7454a55be0",
    "write/itc99_0": "06b79cd03d27e1e620ae472dd998792b2af71c21f7445a57272c77e46438ea60",
    "write/itc99_1": "f30d5686c48c13f44ae5c6f2ba1df8b0bf478f7cc078c3fdb60aadb0632bb79c",
    "write/opencores_0": "305f1fa0b56582a97510cb66380bdbb4888c1b43f40a8357410954472fb728bf",
    "write/opencores_1": "81b2f495af65a4e85c38c409194185e966f78da86a2c9f2a56501adef7f7c604",
    "write/gate_zoo": "034cae46fc50efea53e45fff03f448853f4d2e1c38d90344894119b7a3c29c82",
    "write/smoke_design": "c2d4335b03ce3442ef95e173f9b19bf200759d53d13dcd74ff56551958d99e17",
    "write/toggle": "eb088c2024c43d44e67ff789039d60501bb71630b85dc8ef8ca29782ec8c8a5c",
    "write/extras": "4b087ede85019c961c6674668b4eb4d5288d74734eda41531fdd6a98f9ef8b48",
    "write/forward_references": "85e84356f76124f0cf9ea5d4133e79bb5076a86d7df1916632aaf7d0f2effa86",
    "read/iscas89_0": "4b781d2fb5e3d3bc814b4d30c7123247186e3e4b73ea5288cad743884491beb5",
    "read/iscas89_1": "63321d15aca692aaff10bcbff73a8bb278046de641b5839fe5f3e87535909e15",
    "read/itc99_0": "79c43fc9d5de700c5a8449a93747f01195e07046d1c7f88a6b7ba024ac885ac0",
    "read/itc99_1": "85d304517aa5a26e557275fb6524ffe4e50cd1704f88ffaa046a91390fccd6db",
    "read/opencores_0": "7f0501143cd43040a38a1049eedcfdcf3896c91b683f3f16b3633c5d3fdc7d83",
    "read/opencores_1": "8cbbeba35fa420661bb576ec2297a2945e26054497f67c080c3f753ef4d5f6da",
    "read/gate_zoo": "fcda25afb42d95f8240a89b01ef30f66d12edcc718444c0a9d44dc1f443bc91a",
    "read/smoke_design": "171f45649f2e252c5f1ddf604573a2a096f2087554ce7eaf82f40ccc1342ba0c",
    "read/toggle": "4022746f2fa5d96d29b57c27872555a0a686f5a065eabd72fc786f3726bf7d9d",
    "read/extras": "8aae95598e09674c13104b9d1721a0b3548eb9911ad979d3a764e043f52c07f0",
    "read/forward_references": "db4b7eb022c5a2c571823c180ffa849ee390d34bb6fa071a36515abbb286fade",
    "document/toggle": "e0ed83adfdd775e22bb17d13f74ce5d2b50d0691296d15a615f39814883cf538",
    "document/const_outputs": "f1bb093ddbb2845c0a87096032d0cae9c0fbe0f35f1a13fc43019d507b98487d",
    "document/const_only": "bf115353d9045d93b89e8ac696df031708cfa9530288543849a568b49a666824",
    "document/const_everywhere": "e666053d7d70a038383b0f41a7c31c1f0524ec49cecc160a7f159e98b10c0c85",
    "document/const_everywhere_bin": "e666053d7d70a038383b0f41a7c31c1f0524ec49cecc160a7f159e98b10c0c85",
    "document/init_zero": "a8e6c3231625ebd4c6db9b55560a4bdea6243dbec5d8fe020cdd7925340e7f22",
    "document/init_zero_bin": "a8e6c3231625ebd4c6db9b55560a4bdea6243dbec5d8fe020cdd7925340e7f22",
    "document/gaps_forward": "1b140fc890bd8d3d22838f2edc2f1d375d8d7b306c57ae1c682e93051ed19951",
    "document/collide": "8dd90c0a25295d37971f8872d701310ec1a431446263751232b8bb04fe12db91",
    "document/collide_bin": "8dd90c0a25295d37971f8872d701310ec1a431446263751232b8bb04fe12db91",
    "document/collide_suffix": "a8c7a4b5c128172c1c25f4c62bcd071aa5e567404977b3a200838b1ddf53bb87",
    "document/collide_swap_bin": "cb4c4aabb0ac9ee782e7bcdb399a0ffc3d208a822ce996f26312fa8831287b4b",
    "document/wide_delta_bin": "0d983fbb1a415cff08c4004e778a439800269d2010b131c51b279553e3c16a15",
    "lower/iscas89_raw": "cb9b54d74dba29669f935e13bcd852754d8f7b1ddbc609ba1d0f05c0616dadc0",
    "lower/itc99_raw": "36565f66cc1ee2f1061cce6f208578cfbd4f317c3f5d7176c7b01dace87ce277",
    "lower/opencores_raw": "82d2bc6b18684cae3b8c96bdad0076cf3b7e71f259bd8f5c4030f07cf6ac96b9",
    "lower/gate_zoo": "3f74a5c01aa0cc5c66c2483ef11002ad7eda1bb9791bea27fd344fca3e8aa9d8",
    "lower/smoke_raw": "3143fa9a337d1998db49001e228b42990193ea14e3ceac1df527a6edec4e7d0e",
    "lower/constants_with_pi": "42fbdb33382256a661be277b015afda4559cc6ff9f334e38afae91f44f1cdd10",
    "lower/constants_without_pi": "57c8aa07d1f324be6556714c9f0e47df3f851c605ad92ae134f1985b6621985d",
    "lower/extras": "0add29a2d3ec8089034fddb00ac44cecd4ceb1f74c29aa625ae5676dffdbf531",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_ingest_pinned(key):
    kind, name = key.split("/")
    if kind == "write":
        assert write_digest(aig_sources()[name]) == GOLDEN[key]
    elif kind == "read":
        assert read_digest(aig_sources()[name]) == GOLDEN[key]
    elif kind == "document":
        assert document_digest(DOCUMENTS[name]) == GOLDEN[key]
    else:
        assert lowering_digest(lowering_sources()[name]) == GOLDEN[key]


def test_corpus_fully_pinned():
    expected = [f"{kind}/{k}" for kind in ("write", "read") for k in aig_sources()]
    expected += [f"document/{k}" for k in DOCUMENTS]
    expected += [f"lower/{k}" for k in lowering_sources()]
    assert sorted(GOLDEN) == sorted(expected)


def test_binary_symbol_collisions_resolve_as_ascii():
    """A colliding input or latch symbol is suffixed in both formats; the
    binary reader used to drop it and keep the generated name."""
    ascii_nl = read_aiger(DOCUMENTS["collide"])
    binary_nl = read_aiger(DOCUMENTS["collide_bin"])
    names = [binary_nl.node_name(i) for i in binary_nl.nodes()]
    assert names == [ascii_nl.node_name(i) for i in ascii_nl.nodes()]
    assert names[:5] == ["x", "x_0", "a5", "n2", "a5_0"]
    assert "n2_0" in names


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for key, value in record().items():
        print(f'    "{key}": "{value}",')
    print("}")

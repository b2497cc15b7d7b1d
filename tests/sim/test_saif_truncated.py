"""A truncated SAIF file must fail to parse, not lose its tail silently."""

import pytest

from repro.sim.logicsim import SimConfig, simulate
from repro.sim.saif import activity_from_probs, parse_saif

from tests.sim._engines import gate_zoo_netlist, zoo_workload


@pytest.fixture(scope="module")
def zoo_saif() -> str:
    nl = gate_zoo_netlist()
    r = simulate(nl, zoo_workload(), SimConfig(cycles=16))
    doc = activity_from_probs(nl, r.logic_prob, r.tr01_prob, r.tr10_prob)
    return doc.dumps().rstrip()


def test_every_proper_prefix_rejected(zoo_saif):
    assert len(parse_saif(zoo_saif).signals) == len(gate_zoo_netlist())
    for cut in range(len(zoo_saif)):
        with pytest.raises(ValueError):
            parse_saif(zoo_saif[:cut])


def test_truncation_named_in_error(zoo_saif):
    cut = zoo_saif.index("(NET") + 40
    with pytest.raises(ValueError, match="truncated"):
        parse_saif(zoo_saif[:cut])


def test_unmatched_close_rejected(zoo_saif):
    with pytest.raises(ValueError, match="'\\)'"):
        parse_saif(zoo_saif + ")")

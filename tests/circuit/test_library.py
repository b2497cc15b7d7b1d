"""Tests for the classic circuit library (repro.circuit.library).

Each circuit is verified *behaviourally* against its specification, not
just structurally.
"""

import numpy as np
import pytest

from repro.circuit.library import library_circuit, library_names

from tests.sim.reference import CycleSimulator

ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def drive(nl, stim_by_name, cycles):
    """Drive named PI bit sequences; return per-cycle node values (lane 0)."""
    pis = nl.pis
    names = [nl.node_name(p) for p in pis]
    sim = CycleSimulator(nl, streams=64)
    sim.reset()
    history = []
    for c in range(cycles):
        words = np.array(
            [
                [ONES if stim_by_name.get(n, [0] * cycles)[c] else np.uint64(0)]
                for n in names
            ],
            dtype=np.uint64,
        )
        vals = sim.step(words, c)
        history.append((vals[:, 0] & np.uint64(1)).astype(int).copy())
        sim.latch()
    return history


class TestCatalogue:
    def test_names(self):
        assert set(library_names()) == {
            "s27",
            "updown2",
            "traffic",
            "parity_acc",
            "gray3",
        }

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            library_circuit("s9999")

    @pytest.mark.parametrize("name", library_names())
    def test_all_valid_and_sequential(self, name):
        nl = library_circuit(name)
        nl.validate()
        assert nl.dffs, f"{name} should be sequential"
        assert nl.pos

    def test_fresh_copies(self):
        a = library_circuit("s27")
        b = library_circuit("s27")
        assert a is not b


class TestGray3:
    def test_one_bit_flips_per_cycle(self):
        nl = library_circuit("gray3")
        hist = drive(nl, {}, 10)
        g = [nl.node_by_name(n) for n in ("g0", "g1", "g2")]
        codes = [tuple(h[x] for x in g) for h in hist]
        for prev, cur in zip(codes, codes[1:]):
            flips = sum(a != b for a, b in zip(prev, cur))
            assert flips == 1, (prev, cur)

    def test_visits_all_eight_codes(self):
        nl = library_circuit("gray3")
        hist = drive(nl, {}, 8)
        g = [nl.node_by_name(n) for n in ("g0", "g1", "g2")]
        codes = {tuple(h[x] for x in g) for h in hist}
        assert len(codes) == 8


class TestParityAcc:
    def test_accumulates_parity(self):
        nl = library_circuit("parity_acc")
        bits = [1, 1, 0, 1, 0, 0, 1, 1]
        hist = drive(nl, {"bit": bits, "clear": [0] * 8}, 8)
        par = nl.node_by_name("parity")
        running = 0
        for c, b in enumerate(bits):
            # DFF shows the parity of bits seen *before* this cycle.
            assert hist[c][par] == running
            running ^= b

    def test_clear_resets(self):
        nl = library_circuit("parity_acc")
        hist = drive(
            nl, {"bit": [1, 0, 0, 0], "clear": [0, 1, 0, 0]}, 4
        )
        par = nl.node_by_name("parity")
        assert hist[1][par] == 1  # accumulated the first bit
        assert hist[2][par] == 0  # cleared


class TestUpDown2:
    def test_counts_up(self):
        nl = library_circuit("updown2")
        hist = drive(nl, {"up": [1] * 6, "en": [1] * 6}, 6)
        q0, q1 = nl.node_by_name("q0"), nl.node_by_name("q1")
        values = [h[q0] + 2 * h[q1] for h in hist]
        assert values == [0, 1, 2, 3, 0, 1]

    def test_counts_down(self):
        nl = library_circuit("updown2")
        hist = drive(nl, {"up": [0] * 5, "en": [1] * 5}, 5)
        q0, q1 = nl.node_by_name("q0"), nl.node_by_name("q1")
        values = [h[q0] + 2 * h[q1] for h in hist]
        assert values == [0, 3, 2, 1, 0]

    def test_enable_holds(self):
        nl = library_circuit("updown2")
        hist = drive(nl, {"up": [1] * 4, "en": [1, 0, 0, 1]}, 4)
        q0, q1 = nl.node_by_name("q0"), nl.node_by_name("q1")
        values = [h[q0] + 2 * h[q1] for h in hist]
        assert values == [0, 1, 1, 1]


class TestTraffic:
    def test_exactly_one_light_after_reset(self):
        nl = library_circuit("traffic")
        stim = {"rst": [1] + [0] * 11}
        hist = drive(nl, stim, 12)
        lights = [nl.node_by_name(n) for n in ("red", "yellow", "green")]
        for h in hist[2:]:
            assert sum(h[l] for l in lights) == 1

    def test_cycles_red_green_yellow(self):
        nl = library_circuit("traffic")
        stim = {"rst": [1] + [0] * 15}
        hist = drive(nl, stim, 16)
        lights = [nl.node_by_name(n) for n in ("red", "green", "yellow")]
        seen = []
        for h in hist[2:]:
            hot = [name for name, l in zip("RGY", lights) if h[l]]
            if hot and (not seen or seen[-1] != hot[0]):
                seen.append(hot[0])
        # order after reset: red -> green -> yellow -> red ...
        assert "".join(seen[:4]) in ("RGYR", "RGY")


class TestS27:
    def test_structure_matches_iscas(self):
        nl = library_circuit("s27")
        assert len(nl.pis) == 4
        assert len(nl.dffs) == 3
        assert len(nl.pos) == 1
        # 17 nodes total: 4 PI + 3 DFF + 10 gates.
        assert len(nl) == 17

    def test_simulates(self):
        from repro.sim.logicsim import SimConfig, simulate
        from repro.sim.workload import random_workload

        nl = library_circuit("s27")
        res = simulate(nl, random_workload(nl, 1), SimConfig(cycles=64))
        assert (res.logic_prob >= 0).all() and (res.logic_prob <= 1).all()

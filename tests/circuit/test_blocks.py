"""Functional tests of the RTL building blocks (repro.circuit.blocks).

Each block is verified behaviourally: build it, drive deterministic
stimulus through the logic simulator, and check the observed sequence
against the block's specification (counters count, adders add, ...).
"""

import numpy as np
import pytest

from repro.circuit.blocks import BlockBuilder

from tests.sim.reference import CycleSimulator

ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
ZERO = np.uint64(0)


def drive(nl, pi_bits: list[list[int]], cycles: int):
    """Simulate stream 0 with per-cycle PI bits; returns value history."""
    sim = CycleSimulator(nl, streams=64)
    sim.reset()
    history = []
    for c in range(cycles):
        words = np.array(
            [[ONES if pi_bits[k][c] else ZERO] for k in range(len(pi_bits))],
            dtype=np.uint64,
        )
        vals = sim.step(words, c)
        history.append((vals[:, 0] & np.uint64(1)).astype(int).copy())
        sim.latch()
    return history


def bit_sequence(history, node):
    return [h[node] for h in history]


class TestCounter:
    def test_counts_binary(self):
        b = BlockBuilder("cnt")
        bits = b.counter(3)
        nl = b.finish()
        hist = drive(nl, [], cycles=9)
        values = [
            sum(h[bits[k]] << k for k in range(3)) for h in hist
        ]
        assert values == [0, 1, 2, 3, 4, 5, 6, 7, 0]

    def test_enable_freezes(self):
        b = BlockBuilder("cnt_en")
        en = b.pi("en")
        bits = b.counter(3, enable=en)
        nl = b.finish()
        stim = [[1, 1, 0, 0, 1]]
        hist = drive(nl, stim, cycles=5)
        values = [sum(h[bits[k]] << k for k in range(3)) for h in hist]
        # counts on en=1 cycles only: 0,1,(hold 2? ...)
        assert values == [0, 1, 2, 2, 2]


class TestShiftRegister:
    def test_delays_input(self):
        b = BlockBuilder("sr")
        d = b.pi("d")
        taps = b.shift_register(d, 3)
        nl = b.finish()
        stim = [[1, 0, 1, 1, 0, 0, 0]]
        hist = drive(nl, stim, cycles=7)
        seq_in = stim[0]
        seq_out = bit_sequence(hist, taps[-1])
        # Tap k delays by k+1 cycles; depth 3 -> delay 3.
        assert seq_out[3:] == seq_in[: 7 - 3]


class TestRippleAdder:
    @pytest.mark.parametrize("a,b_val", [(0, 0), (3, 5), (7, 7), (6, 1)])
    def test_adds(self, a, b_val):
        builder = BlockBuilder("add")
        a_pis = [builder.pi(f"a{k}") for k in range(3)]
        b_pis = [builder.pi(f"b{k}") for k in range(3)]
        total, carry = builder.ripple_adder(a_pis, b_pis)
        nl = builder.finish()
        stim = [[(a >> k) & 1] for k in range(3)] + [
            [(b_val >> k) & 1] for k in range(3)
        ]
        hist = drive(nl, stim, cycles=1)
        got = sum(hist[0][total[k]] << k for k in range(3))
        got += hist[0][carry] << 3
        assert got == a + b_val

    def test_width_mismatch_rejected(self):
        b = BlockBuilder("bad")
        with pytest.raises(ValueError):
            b.ripple_adder([b.pi()], [b.pi(), b.pi()])


class TestDecoder:
    def test_one_hot_output(self):
        b = BlockBuilder("dec")
        sel = [b.pi(f"s{k}") for k in range(2)]
        outs = b.decoder(sel)
        nl = b.finish()
        for code in range(4):
            stim = [[(code >> k) & 1] for k in range(2)]
            hist = drive(nl, stim, cycles=1)
            hot = [hist[0][o] for o in outs]
            assert hot == [1 if i == code else 0 for i in range(4)]


class TestMuxTree:
    def test_selects_input(self):
        b = BlockBuilder("mux")
        sel = [b.pi(f"s{k}") for k in range(2)]
        ins = [b.pi(f"i{k}") for k in range(4)]
        out = b.mux_tree(sel, ins)
        nl = b.finish()
        for code in range(4):
            for hot in range(4):
                stim = [[(code >> k) & 1] for k in range(2)]
                stim += [[1 if i == hot else 0] for i in range(4)]
                hist = drive(nl, stim, cycles=1)
                assert hist[0][out] == (1 if hot == code else 0)

    def test_wrong_input_count_rejected(self):
        b = BlockBuilder("bad")
        with pytest.raises(ValueError):
            b.mux_tree([b.pi()], [b.pi()])


class TestEquality:
    def test_matches_only_equal(self):
        b = BlockBuilder("eq")
        a_pis = [b.pi(f"a{k}") for k in range(2)]
        b_pis = [b.pi(f"b{k}") for k in range(2)]
        eq = b.equality(a_pis, b_pis)
        nl = b.finish()
        for x in range(4):
            for y in range(4):
                stim = [[(x >> k) & 1] for k in range(2)]
                stim += [[(y >> k) & 1] for k in range(2)]
                hist = drive(nl, stim, cycles=1)
                assert hist[0][eq] == (1 if x == y else 0)


class TestParity:
    @pytest.mark.parametrize("value", range(8))
    def test_parity_of_three_bits(self, value):
        b = BlockBuilder("par")
        pis = [b.pi(f"i{k}") for k in range(3)]
        p = b.parity_tree(pis)
        nl = b.finish()
        stim = [[(value >> k) & 1] for k in range(3)]
        hist = drive(nl, stim, cycles=1)
        assert hist[0][p] == bin(value).count("1") % 2


class TestFsm:
    def test_ring_advances(self):
        b = BlockBuilder("fsm")
        adv = b.pi("adv")
        rst = b.pi("rst")
        states = b.fsm_one_hot(3, adv, rst)
        nl = b.finish()
        # reset pulse then advance every cycle
        stim = [[0, 1, 1, 1, 1], [1, 0, 0, 0, 0]]
        hist = drive(nl, stim, cycles=5)
        hots = [[h[s] for s in states] for h in hist]
        # after reset state0 hot; then the hot bit rotates
        assert hots[1] == [1, 0, 0]
        assert hots[2] == [0, 1, 0]
        assert hots[3] == [0, 0, 1]
        assert hots[4] == [1, 0, 0]

    def test_hold_when_not_advancing(self):
        b = BlockBuilder("fsm2")
        adv = b.pi("adv")
        rst = b.pi("rst")
        states = b.fsm_one_hot(3, adv, rst)
        nl = b.finish()
        stim = [[0, 1, 0, 0], [1, 0, 0, 0]]
        hist = drive(nl, stim, cycles=4)
        hots = [[h[s] for s in states] for h in hist]
        assert hots[2] == [0, 1, 0]
        assert hots[3] == [0, 1, 0], "state must hold with advance low"


class TestRegister:
    def test_register_bank_holds_without_enable(self):
        b = BlockBuilder("bank")
        en = b.pi("en")
        data = [b.pi("d0"), b.pi("d1")]
        regs = b.register_bank(data, enable=en)
        nl = b.finish()
        stim = [[1, 0, 0], [1, 0, 0], [1, 1, 1]]
        hist = drive(nl, stim, cycles=3)
        # captured on first cycle (en=1), held afterwards despite d changes
        assert bit_sequence(hist, regs[0])[1:] == [1, 1]
        assert bit_sequence(hist, regs[1])[1:] == [1, 1]

    def test_lfsr_validates(self):
        b = BlockBuilder("lfsr")
        b.lfsr(4)
        nl = b.finish()
        nl.validate()
        with pytest.raises(ValueError):
            BlockBuilder("x").lfsr(1)

"""The fixed-array stimulus path of :meth:`Simulator.run`.

``run`` takes either a :class:`PatternSource` or a precompiled
``(warmup + cycles, num_pis, words)`` uint64 array.  The differential
tests compare the array path with the per-cycle reference engine; these
pin it against closed-form answers instead: exhaustive input words give
every gate kind's truth table, pinned phases give exact probabilities and
transition counts, and a DFF delays its input by exactly one cycle
whatever the block size.
"""

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.sim.bitvec import WORD_BITS, words_for
from repro.sim.logicsim import ActivityCounter, Simulator

from tests.sim._engines import gate_zoo_netlist

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Boolean meaning of every zoo gate in the first cycle after a zero reset
#: (both DFFs hold 0), written independently of the word kernels.
FIRST_CYCLE_GATES = {
    "and2": lambda a, b, c: a & b,
    "and3": lambda a, b, c: a & b & c,
    "nand2": lambda a, b, c: 1 - (b & c),
    "nor2": lambda a, b, c: 1 - (a | c),
    "xor2": lambda a, b, c: a ^ b,
    "xor3": lambda a, b, c: a ^ b ^ c,
    "inv": lambda a, b, c: 1 - (a & b),
    "buf": lambda a, b, c: a ^ b,
    "k0": lambda a, b, c: 0,
    "k1": lambda a, b, c: 1,
    "or2": lambda a, b, c: a,  # a | d0
    "or3": lambda a, b, c: a | b,  # a | b | d1
    "nand3": lambda a, b, c: 1,  # NAND(a, c, d0)
    "xnor2": lambda a, b, c: 1 - b,  # XNOR(b, d0)
    "xnor3": lambda a, b, c: 1 - (a ^ c),  # XNOR(a, c, d1)
    "mux": lambda a, b, c: a & (1 - (b & c)),  # sel a: or2 (= 0) or nand2
    "mixed": lambda a, b, c: a | b,  # AND(k1, or3)
    "dead0": lambda a, b, c: 1 - (a ^ c),  # OR(k0, xnor3)
}


class _Recorder:
    def __init__(self) -> None:
        self.blocks: list[np.ndarray] = []

    def observe_block(self, history: np.ndarray) -> None:
        self.blocks.append(history.copy())

    def history(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def _pack(bits: np.ndarray) -> np.ndarray:
    """``(..., streams)`` 0/1 array -> ``(..., words)`` uint64, stream s at
    bit ``s % 64`` of word ``s // 64``."""
    streams = bits.shape[-1]
    words = words_for(streams)
    padded = np.zeros(bits.shape[:-1] + (words * WORD_BITS,), dtype=np.uint64)
    padded[..., :streams] = bits
    shaped = padded.reshape(bits.shape[:-1] + (words, WORD_BITS))
    weights = np.left_shift(np.uint64(1), np.arange(WORD_BITS, dtype=np.uint64))
    return np.bitwise_or.reduce(shaped * weights, axis=-1)


def _unpack(words: np.ndarray, streams: int) -> np.ndarray:
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (words[..., None] >> shifts) & np.uint64(1)
    return bits.reshape(words.shape[:-1] + (-1,))[..., :streams].astype(np.int64)


def _pinned(rows: list[int], num_pis: int, words: int) -> np.ndarray:
    """One row per cycle: every stream of every PI held at that row's bit."""
    stim = np.zeros((len(rows), num_pis, words), dtype=np.uint64)
    stim[np.asarray(rows, dtype=bool)] = ALL_ONES
    return stim


def _dff_pair() -> Netlist:
    nl = Netlist("delay")
    a = nl.add_pi("a")
    q = nl.add_dff(a, "q")
    nl.add_po(q)
    nl.validate()
    return nl


class TestExhaustiveInputs:
    """Stream ``s`` carries input combination ``s % 8`` of ``(a, b, c)``."""

    @pytest.mark.parametrize("streams", [64, 200])
    @pytest.mark.parametrize("name", sorted(FIRST_CYCLE_GATES))
    def test_gate_matches_its_truth_table(self, name, streams):
        nl = gate_zoo_netlist()
        sim = Simulator(nl, streams=streams)
        sim.reset()
        combo = np.arange(streams) % 8
        inputs = [(combo >> i) & 1 for i in range(3)]
        order = [nl.node_name(int(p)) for p in sim.compiled.pi_ids]
        assert order == ["a", "b", "c"]
        stim = _pack(np.stack(inputs))[None]
        sim.run(1, stim)
        got = _unpack(sim.values[nl.node_by_name(name)], streams)
        want = np.array(
            [FIRST_CYCLE_GATES[name](a, b, c) for a, b, c in zip(*inputs)]
        )
        assert np.array_equal(got, want)


class TestPinnedPhases:
    @pytest.mark.parametrize(
        "warmup, ones, zeros",
        [(0, 3, 5), (2, 4, 4), (5, 1, 10), (0, 0, 6), (3, 6, 0)],
    )
    def test_probabilities_are_exact(self, warmup, ones, zeros):
        nl = gate_zoo_netlist()
        sim = Simulator(nl, streams=64)
        sim.reset()
        cycles = ones + zeros
        # Warmup rows are all ones: counting any of them shows in every
        # figure below.
        stim = _pinned([1] * warmup + [1] * ones + [0] * zeros, 3, sim.words)
        counter = ActivityCounter(sim.compiled.num_nodes, sim.words)
        sim.run(cycles, stim, counter, warmup=warmup)
        res = counter.result(nl, sim.streams)
        assert counter.cycles == cycles and counter.pairs == cycles - 1
        pairs = max(cycles - 1, 1)
        edge = 1 if ones and zeros else 0
        for name in ("a", "and3", "xor3", "buf"):
            node = nl.node_by_name(name)
            # and3/xor3 follow a pinned all-equal input; a^b with a == b is 0.
            high = 0 if name == "buf" else ones
            fall = 0 if name == "buf" else edge
            assert res.logic_prob[node] == high / cycles
            assert res.tr01_prob[node] == 0.0
            assert res.tr10_prob[node] == fall / pairs
        k1 = nl.node_by_name("k1")
        assert res.logic_prob[k1] == 1.0 and res.tr10_prob[k1] == 0.0

    def test_warmup_only_run_observes_nothing_but_advances_state(self):
        nl = _dff_pair()
        sim = Simulator(nl, streams=64)
        sim.reset()
        counter = ActivityCounter(sim.compiled.num_nodes, sim.words)
        sim.run(0, _pinned([0, 0, 1], 1, sim.words), counter, warmup=3)
        assert counter.cycles == 0 and counter.pairs == 0
        assert not counter.ones.any()
        assert (sim.values[nl.node_by_name("q")] == ALL_ONES).all()

    def test_zero_cycle_run_changes_nothing(self):
        nl = gate_zoo_netlist()
        sim = Simulator(nl, streams=64)
        sim.reset("random")
        before = sim.values.copy()
        counter = ActivityCounter(sim.compiled.num_nodes, sim.words)
        assert sim.run(0, np.zeros((0, 3, 1), dtype=np.uint64), counter) is counter
        assert counter.cycles == 0
        assert np.array_equal(sim.values, before)

    def test_nested_lists_are_coerced_to_words(self):
        nl = gate_zoo_netlist()
        rng = np.random.default_rng(3)
        stim = rng.integers(0, 2**64, size=(6, 3, 1), dtype=np.uint64)
        counts = []
        for source in (stim, stim.tolist()):
            sim = Simulator(nl, streams=64)
            sim.reset()
            counter = ActivityCounter(sim.compiled.num_nodes, sim.words)
            sim.run(4, source, counter, warmup=2)
            counts.append((counter.ones, counter.tr01, counter.tr10))
        for a, b in zip(*counts):
            assert np.array_equal(a, b)


class TestDffDelay:
    @pytest.mark.parametrize("block_cycles", [1, 2, 5, None])
    def test_dff_output_is_its_input_one_cycle_late(self, block_cycles):
        nl = _dff_pair()
        sim = Simulator(nl, streams=128)
        sim.reset()
        rng = np.random.default_rng(7)
        stim = rng.integers(0, 2**64, size=(13, 1, sim.words), dtype=np.uint64)
        rec = _Recorder()
        sim.run(len(stim), stim, observers=[rec], block_cycles=block_cycles)
        hist = rec.history()
        a, q = nl.node_by_name("a"), nl.node_by_name("q")
        assert np.array_equal(hist[:, a], stim[:, 0])
        assert not hist[0, q].any()
        assert np.array_equal(hist[1:, q], hist[:-1, a])
        # After the last cycle the DFF holds the last input.
        assert np.array_equal(sim.values[q], stim[-1, 0])


class TestBlockSlicing:
    @pytest.mark.parametrize("block_cycles", [1, 3, 7, 64])
    def test_counts_do_not_depend_on_block_cycles(self, block_cycles):
        nl = gate_zoo_netlist()
        rng = np.random.default_rng(11)
        stim = rng.integers(0, 2**64, size=(17, 3, 2), dtype=np.uint64)

        def counts(bc):
            sim = Simulator(nl, streams=128)
            sim.reset("random", np.random.default_rng(1))
            counter = ActivityCounter(sim.compiled.num_nodes, sim.words)
            sim.run(14, stim, counter, warmup=3, block_cycles=bc)
            return counter, sim.values

        ref, ref_values = counts(len(stim))
        got, values = counts(block_cycles)
        assert (got.cycles, got.pairs) == (ref.cycles, ref.pairs) == (14, 13)
        assert np.array_equal(got.ones, ref.ones)
        assert np.array_equal(got.tr01, ref.tr01)
        assert np.array_equal(got.tr10, ref.tr10)
        assert np.array_equal(values, ref_values)


def test_gate_kinds_covered():
    nl = gate_zoo_netlist()
    kinds = {nl.gate_type(nl.node_by_name(n)) for n in FIRST_CYCLE_GATES}
    assert kinds == {
        gt for gt in GateType if gt not in (GateType.PI, GateType.DFF)
    }

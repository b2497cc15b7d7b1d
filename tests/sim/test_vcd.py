"""Tests for the VCD waveform writer (repro.sim.vcd)."""

import numpy as np
import pytest

from repro.circuit.library import library_circuit
from repro.memory import MemoryBudget
from repro.sim.logicsim import Simulator
from repro.sim.vcd import VcdTracer, _identifier, trace_simulation
from repro.sim.workload import PatternSource, Workload, random_workload


class TestIdentifier:
    def test_unique_and_printable(self):
        ids = [_identifier(k) for k in range(500)]
        assert len(set(ids)) == 500
        for i in ids:
            assert all(33 <= ord(c) <= 126 for c in i)

    def test_compact(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2


class TestTracer:
    @pytest.fixture()
    def traced(self):
        nl = library_circuit("gray3")
        tracer = trace_simulation(
            nl, Workload(np.zeros(0), "none"), cycles=9, seed=0
        )
        return nl, tracer

    def test_cycle_count(self, traced):
        _, tracer = traced
        assert tracer.cycles == 9

    def test_header_declares_all_signals(self, traced):
        nl, tracer = traced
        text = tracer.dumps()
        assert "$timescale 1 ns $end" in text
        assert f"$scope module {nl.name} $end" in text
        for node in nl.nodes():
            assert f" {nl.node_name(node)} $end" in text

    def test_timestamps_monotone(self, traced):
        _, tracer = traced
        stamps = [
            int(line[1:])
            for line in tracer.dumps().splitlines()
            if line.startswith("#")
        ]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0
        assert stamps[-1] == 9

    def test_gray_counter_changes_every_cycle(self, traced):
        nl, tracer = traced
        text = tracer.dumps()
        body = text.split("$enddefinitions $end")[1]
        # A gray counter flips exactly one output bit per cycle, so every
        # cycle 1..8 must appear as a timestamp with changes.
        for t in range(1, 9):
            assert f"#{t}" in body

    def test_empty_trace_rejected(self):
        nl = library_circuit("gray3")
        with pytest.raises(ValueError):
            VcdTracer(nl).dumps()

    def test_dumpvars_initial_value_block(self, traced):
        """Cycle 0 must arrive as a $dumpvars section declaring every
        signal's initial value, so strict viewers render cycle 0."""
        nl, tracer = traced
        lines = tracer.dumps().splitlines()
        start = lines.index("#0")
        assert lines[start + 1] == "$dumpvars"
        end = lines.index("$end", start)
        values = lines[start + 2 : end]
        # one initial value per declared signal, each a 0/1 plus an id
        assert len(values) == len(tracer.nodes)
        assert all(v[0] in "01" for v in values)

    def test_out_of_range_stream_rejected(self):
        nl = library_circuit("gray3")
        tracer = VcdTracer(nl, stream=64)  # one word = streams 0..63
        values = np.zeros((len(nl), 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="out of range"):
            tracer.observe(values)

    def test_in_range_high_stream_reads_correct_word(self):
        nl = library_circuit("gray3")
        tracer = VcdTracer(nl, nodes=[0], stream=65)
        values = np.zeros((len(nl), 2), dtype=np.uint64)
        values[0, 1] = np.uint64(2)  # bit 1 of word 1 == stream 65
        tracer.observe(values)
        assert tracer._history[0][0] == 1

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            VcdTracer(library_circuit("gray3"), stream=-1)

    def test_subset_of_nodes(self):
        nl = library_circuit("gray3")
        keep = [nl.node_by_name("g0")]
        tracer = trace_simulation(
            nl, Workload(np.zeros(0)), cycles=4, nodes=keep
        )
        text = tracer.dumps()
        assert " g0 $end" in text
        assert " g1 $end" not in text

    def test_dump_to_file(self, tmp_path):
        nl = library_circuit("s27")
        tracer = trace_simulation(nl, random_workload(nl, 1), cycles=5)
        path = tmp_path / "wave.vcd"
        tracer.dump(path)
        assert path.read_text().startswith("$date")


class TestBlockTraceMatchesCycleReplay:
    """``trace_simulation`` runs the block executor; its waveform equals a
    per-cycle ``Simulator.step``/``latch`` replay of the same stimulus,
    resident or flushed every cycle under a one-byte budget."""

    @pytest.mark.parametrize("name", ["gray3", "s27"])
    @pytest.mark.parametrize(
        "budget",
        [None, MemoryBudget(plan_bytes=1, history_bytes=1)],
        ids=["resident", "one-byte-budget"],
    )
    def test_dumps_equal(self, name, budget):
        nl = library_circuit(name)
        workload = random_workload(nl, 3)
        sim = Simulator(nl, streams=64)
        sim.reset()
        source = PatternSource(workload, streams=64, seed=5)
        replay = VcdTracer(nl)
        for cycle in range(40):
            replay.observe(sim.step(source.next_cycle(), cycle))
            sim.latch()
        traced = trace_simulation(nl, workload, cycles=40, seed=5, budget=budget)
        assert traced.dumps() == replay.dumps()

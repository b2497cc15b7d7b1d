"""VCD (Value Change Dump) waveform writer.

SAIF carries aggregate activity; VCD carries the actual waveforms.  The
tracer records one simulation stream cycle-by-cycle and serializes an IEEE
1364-style VCD file, so any generated circuit's behaviour can be inspected
in a standard waveform viewer (GTKWave etc.) — invaluable when debugging
the synthetic IP cores or the simulator itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.circuit.netlist import Netlist

__all__ = ["VcdTracer", "trace_simulation"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for signal ``index`` (base-94 encoding)."""
    out = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        out.append(_ID_CHARS[rem])
    return "".join(reversed(out))


@dataclass
class VcdTracer:
    """Records per-cycle values of selected nodes and emits VCD text.

    Args:
        netlist: the circuit being traced (names come from here).
        nodes: node ids to trace; None traces everything.
        stream: which bit lane of the packed simulation to record.
        timescale: VCD timescale string (one clock cycle = one time unit).
    """

    netlist: Netlist
    nodes: list[int] | None = None
    stream: int = 0
    timescale: str = "1 ns"
    _history: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.nodes is None:
            self.nodes = list(self.netlist.nodes())
        self.nodes = [int(n) for n in self.nodes]
        size = len(self.netlist)
        bad = [n for n in self.nodes if not 0 <= n < size]
        if bad:
            raise ValueError(
                f"node ids {bad} out of range: netlist has {size} nodes"
            )
        if self.stream < 0:
            raise ValueError("stream index must be >= 0")

    def observe(self, values: np.ndarray) -> None:
        """Record one settled cycle (the simulator's (N, words) uint64).

        Raises:
            ValueError: when the tracer's ``stream`` lane does not exist
                in ``values`` — out-of-range lanes used to silently read
                the wrong word or die with an opaque IndexError.
        """
        word, bit = divmod(self.stream, 64)
        if word >= values.shape[1]:
            raise ValueError(
                f"stream {self.stream} out of range: observed values carry "
                f"{values.shape[1] * 64} streams"
            )
        lane = (values[self.nodes, word] >> np.uint64(bit)) & np.uint64(1)
        self._history.append(lane.astype(np.uint8))

    def observe_block(self, history: np.ndarray) -> None:
        """Record a ``(block, N, words)`` run of consecutive cycles.

        The block-engine observer hook: spilled history windows land here
        one flush at a time, so a full waveform survives simulations whose
        :class:`~repro.memory.MemoryBudget` shrinks the resident history
        window to a few cycles.  Equivalent to :meth:`observe` per cycle.
        """
        for b in range(history.shape[0]):
            self.observe(history[b])

    @property
    def cycles(self) -> int:
        return len(self._history)

    def dumps(self) -> str:
        """Serialize the recorded trace as VCD text.

        Cycle 0 is emitted as an IEEE 1364 ``$dumpvars`` initial-value
        block covering every declared signal, so strict viewers render
        the first cycle instead of treating all signals as unknown.
        """
        if not self._history:
            raise ValueError("no cycles recorded")
        ids = {node: _identifier(k) for k, node in enumerate(self.nodes)}
        lines = [
            "$date repro $end",
            "$version repro.sim.vcd $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.netlist.name} $end",
        ]
        for node in self.nodes:
            name = self.netlist.node_name(node)
            lines.append(f"$var wire 1 {ids[node]} {name} $end")
        lines += ["$upscope $end", "$enddefinitions $end"]
        prev: dict[int, int] = {}
        for cycle, lane in enumerate(self._history):
            if cycle == 0:
                lines.append("#0")
                lines.append("$dumpvars")
                lines.extend(
                    f"{int(v)}{ids[node]}"
                    for node, v in zip(self.nodes, lane)
                )
                lines.append("$end")
            else:
                changes = [
                    f"{int(v)}{ids[node]}"
                    for node, v in zip(self.nodes, lane)
                    if prev.get(node) != int(v)
                ]
                if changes:
                    lines.append(f"#{cycle}")
                    lines.extend(changes)
            for node, v in zip(self.nodes, lane):
                prev[node] = int(v)
        lines.append(f"#{len(self._history)}")
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())


def trace_simulation(
    netlist: Netlist,
    workload,
    cycles: int,
    nodes: list[int] | None = None,
    seed: int = 0,
    budget=None,
) -> VcdTracer:
    """Convenience: simulate ``cycles`` cycles and return a filled tracer.

    Runs the block executor with the tracer attached as a history
    observer; under a :class:`~repro.memory.MemoryBudget` the window
    spills to the tracer every flush, producing the identical waveform.
    """
    from repro.sim.logicsim import Simulator
    from repro.sim.workload import PatternSource

    sim = Simulator(netlist, streams=64)
    sim.reset()
    tracer = VcdTracer(netlist, nodes=nodes)
    sim.run(
        cycles,
        PatternSource(workload, streams=64, seed=seed),
        observers=[tracer],
        budget=budget,
    )
    return tracer

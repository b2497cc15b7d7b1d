"""Seed-derived inputs shared by the workloads.

Every input comes from ``--seed`` through ``numpy.random.SeedSequence``;
the program under test only ever sees generated netlists and workloads.

Circuits are picked from a generated pool to match *fixed targets of size
and logic depth* (:func:`matched_subcircuits`), so two seeds give
different netlists that cost nearly the same to label and to train on.
Unmatched, 24 family sub-circuits differ by 18% in total node count and
by 40% in the summed depth of their minibatches between seeds, and the
seed — not the system — would set the step time a run reports (225 ms on
one seed, 302 ms on another).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.benchmarks import FAMILY_STATS, family_subcircuits
from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist

from harness import seed_int

FAMILIES = tuple(sorted(FAMILY_STATS))


def slot_targets(per_family: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """``per_family`` (nodes, levels) targets: sizes evenly spaced over the
    upper three quarters of ``[lo, hi]``, depths growing with size the way
    the families' pools do (~23 levels at 190 nodes, ~32 at 300)."""
    sizes = np.linspace(lo + (hi - lo) / 4, hi, per_family).round().astype(int)
    return [(int(n), int(round(7.5 + n / 12.25))) for n in sizes]


def matched_subcircuits(
    seq: np.random.SeedSequence, per_family: int, lo: int, hi: int
) -> list[Netlist]:
    """``per_family`` AIG sub-circuits per family, the one nearest to each
    of :func:`slot_targets` in relative size and (counted twice) depth.

    Per family a pool of ``6 * per_family`` is generated from the child
    seed; slots are filled in order, each taking the nearest unused
    circuit.  The levelized sweeps this benchmark times cost per level as
    well as per node, and a packed batch is as deep as its deepest member.
    """
    targets = slot_targets(per_family, lo, hi)
    out: list[Netlist] = []
    for family, child in zip(FAMILIES, seq.spawn(len(FAMILIES))):
        pool = family_subcircuits(family, 6 * per_family, seed=seed_int(child))
        free = [(nl, len(nl), CircuitGraph(nl).num_levels) for nl in pool]
        for nodes, levels in targets:
            best = min(
                free,
                key=lambda c: (abs(c[1] - nodes) / nodes + 2 * abs(c[2] - levels) / levels, c[1]),
            )
            free.remove(best)
            out.append(best[0])
    return out


def balanced_chunks(circuits: list[Netlist], chunk: int) -> list[list[Netlist]]:
    """Deal size-sorted circuits round-robin into chunks of ``chunk``.

    Every chunk then holds about the same number of nodes, so per-chunk
    latency reflects the system and not which circuits a chunk drew.
    """
    n_chunks = max(1, len(circuits) // chunk)
    order = sorted(range(len(circuits)), key=lambda i: (len(circuits[i]), i))
    return [[circuits[i] for i in order[k::n_chunks]] for k in range(n_chunks)]


def nearest_by_size(pool: list[Netlist], targets: list[int]) -> list[Netlist]:
    """For each target size, the unused pool circuit closest to it."""
    free = list(pool)
    out = []
    for target in targets:
        best = min(free, key=lambda nl: (abs(len(nl) - target), len(nl)))
        free.remove(best)
        out.append(best)
    return out

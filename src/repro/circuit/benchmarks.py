"""Synthetic benchmark suites standing in for ISCAS'89 / ITC'99 / OpenCores.

Two deliverables live here:

* **Training families** (Table I): deterministic streams of sequential
  sub-circuits whose AIG sizes follow each family's node statistics
  (ISCAS'89: 148.9 +/- 87.6, ITC'99: 272.6 +/- 108.3, OpenCores:
  211.4 +/- 81.4) and whose structural profile matches the family character
  (control-heavy vs datapath-heavy vs mixed).

* **Large test designs** (Table IV): six named IP-core stand-ins —
  noc_router, pll, ptc, rtcclock, ac97_ctrl, mem_ctrl — assembled from the
  RTL blocks in :mod:`repro.circuit.blocks` and sized to the paper's node
  counts.  Each design gates most of its modules behind rarely-asserted
  enables, reproducing the paper's observation that ~70 % of gates show no
  transition activity under a random workload (Section V-A1).

Everything is seed-deterministic.  Real ``.bench`` files can replace any of
these via :func:`repro.circuit.bench.parse_bench_file`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.circuit.aig import to_aig
from repro.circuit.blocks import BlockBuilder
from repro.circuit.gates import GateType
from repro.circuit.generate import GeneratorConfig, random_sequential_netlist
from repro.circuit.netlist import Netlist

__all__ = [
    "FAMILY_STATS",
    "LARGE_DESIGN_SPECS",
    "family_subcircuits",
    "training_corpus",
    "large_design",
    "load_design",
]


@dataclass(frozen=True)
class FamilyStats:
    """Published statistics of one training family (paper Table I)."""

    name: str
    paper_count: int
    mean_nodes: float
    std_nodes: float
    #: fraction of gate mix devoted to XOR-rich datapath logic
    datapath_weight: float
    #: mean DFF fraction of total nodes
    dff_fraction: float


FAMILY_STATS: dict[str, FamilyStats] = {
    "iscas89": FamilyStats("iscas89", 1159, 148.88, 87.56, 0.10, 0.10),
    "itc99": FamilyStats("itc99", 1691, 272.60, 108.33, 0.30, 0.08),
    "opencores": FamilyStats("opencores", 7684, 211.41, 81.37, 0.20, 0.12),
}

#: Approximate AIG node cost of one 2-input instance of each library gate
#: under :func:`repro.circuit.aig.to_aig` (used only for sizing heuristics).
_AIG_COST: dict[GateType, float] = {
    GateType.AND: 1,
    GateType.NOT: 1,
    GateType.BUF: 2,
    GateType.OR: 4,
    GateType.NAND: 2,
    GateType.NOR: 3,
    GateType.XOR: 8,
    GateType.XNOR: 9,
    GateType.MUX: 7,
}


def _mix_cost(mix: dict[GateType, float], avg_arity: float) -> float:
    total = sum(mix.values())
    cost = 0.0
    for gt, w in mix.items():
        c = _AIG_COST[gt]
        if gt in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR):
            c *= max(1.0, avg_arity - 1.0)
        cost += (w / total) * c
    return cost


def family_subcircuits(
    family: str, count: int, seed: int = 0, as_aig: bool = True
) -> list[Netlist]:
    """Generate ``count`` training sub-circuits of one family.

    Sizes are drawn from the family's (mean, std) truncated to [40, 600]
    AIG nodes; the gate mix interpolates between a control-heavy and a
    datapath-heavy profile according to the family's ``datapath_weight``.
    """
    try:
        stats = FAMILY_STATS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_STATS)}"
        ) from None
    # zlib.crc32 is a *stable* hash — Python's hash() is randomized per
    # process, which would make corpora irreproducible across runs.
    rng = np.random.default_rng(seed ^ (zlib.crc32(family.encode()) & 0xFFFF))
    mix = _family_mix(stats.datapath_weight)
    avg_arity = 2.25
    # 1.18: empirical correction for tree expansion of n-ary gates and MUX
    # select sharing (calibrated in tests/circuit/test_benchmarks.py).
    per_gate = _mix_cost(mix, avg_arity) * 1.18
    out: list[Netlist] = []
    for k in range(count):
        target = float(rng.normal(stats.mean_nodes, stats.std_nodes))
        target = float(np.clip(target, 40.0, 600.0))
        n_dffs = max(1, int(round(target * stats.dff_fraction)))
        n_pis = max(2, int(rng.integers(4, 12)))
        # target ~ n_pis + n_dffs + n_gates * per_gate
        n_gates = max(4, int(round((target - n_pis - n_dffs) / per_gate)))
        config = GeneratorConfig(
            n_pis=n_pis,
            n_dffs=n_dffs,
            n_gates=n_gates,
            gate_mix=mix,
            max_fanin=3,
            locality=0.55 + 0.2 * rng.random(),
            reconvergence_bias=0.3,
            n_pos=int(rng.integers(2, 6)),
        )
        nl = random_sequential_netlist(
            config, seed=int(rng.integers(0, 2**31)), name=f"{family}_{k}"
        )
        out.append(to_aig(nl).aig if as_aig else nl)
    return out


def training_corpus(
    counts: dict[str, int] | None = None, seed: int = 0, as_aig: bool = True
) -> dict[str, list[Netlist]]:
    """Generate the full multi-family training corpus.

    ``counts`` defaults to each family's published sub-circuit count scaled
    down is the caller's job (experiment configs pass explicit counts).
    """
    if counts is None:
        counts = {k: v.paper_count for k, v in FAMILY_STATS.items()}
    return {
        fam: family_subcircuits(fam, cnt, seed=seed + i, as_aig=as_aig)
        for i, (fam, cnt) in enumerate(sorted(counts.items()))
    }


def _family_mix(datapath_weight: float) -> dict[GateType, float]:
    control = {
        GateType.AND: 0.26,
        GateType.NAND: 0.22,
        GateType.OR: 0.16,
        GateType.NOR: 0.14,
        GateType.NOT: 0.16,
        GateType.XOR: 0.02,
        GateType.MUX: 0.04,
    }
    datapath = {
        GateType.AND: 0.22,
        GateType.NAND: 0.10,
        GateType.OR: 0.12,
        GateType.NOR: 0.06,
        GateType.NOT: 0.12,
        GateType.XOR: 0.26,
        GateType.MUX: 0.12,
    }
    w = datapath_weight
    # Sorted by gate-type name: set iteration order over enums is
    # process-dependent (id-based hashing), and the mix dict's insertion
    # order feeds the generator's RNG-to-gate mapping — it must be stable
    # for circuits to reproduce across processes.
    kinds = sorted(set(control) | set(datapath), key=lambda g: g.value)
    return {
        gt: (1 - w) * control.get(gt, 0.0) + w * datapath.get(gt, 0.0)
        for gt in kinds
    }


# ---------------------------------------------------------------------------
# Large test designs (Table IV)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeDesignSpec:
    """Recipe for one Table IV stand-in."""

    name: str
    description: str
    paper_nodes: int
    #: module mixture: (kind, weight); kinds are methods of _IpCoreBuilder
    modules: tuple[tuple[str, float], ...]
    #: width scale of datapath buses
    bus_width: int


LARGE_DESIGN_SPECS: dict[str, LargeDesignSpec] = {
    "noc_router": LargeDesignSpec(
        "noc_router", "Network-on-Chip router", 5246,
        (("fifo", 0.4), ("arbiter", 0.3), ("crossbar", 0.3)), 8,
    ),
    "pll": LargeDesignSpec(
        "pll", "Phase locked loop", 18208,
        (("divider", 0.3), ("accumulator", 0.4), ("filter", 0.3)), 12,
    ),
    "ptc": LargeDesignSpec(
        "ptc", "PWM/Timer/Counter IP core", 2024,
        (("timer", 0.5), ("pwm", 0.5)), 6,
    ),
    "rtcclock": LargeDesignSpec(
        "rtcclock", "Real-time clock core", 4720,
        (("timer", 0.4), ("alarm", 0.3), ("divider", 0.3)), 8,
    ),
    "ac97_ctrl": LargeDesignSpec(
        "ac97_ctrl", "Audio Codec 97 controller", 14004,
        (("fifo", 0.35), ("serializer", 0.35), ("regbank", 0.3)), 10,
    ),
    "mem_ctrl": LargeDesignSpec(
        "mem_ctrl", "Memory controller", 10733,
        (("decoder", 0.25), ("fsm", 0.25), ("regbank", 0.25), ("refresh", 0.25)),
        10,
    ),
}


class _IpCoreBuilder:
    """Assembles a large design from gated modules until a size target."""

    def __init__(self, spec: LargeDesignSpec, seed: int, scale: float = 1.0) -> None:
        self.spec = spec
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.b = BlockBuilder(spec.name)
        # Shared control spine: a free-running counter plus control PIs that
        # drive per-module enables.  Decoded enables are one-hot, so only a
        # slice of the design is active at a time (low-power idling).
        self.ctrl_pis = [self.b.pi(f"ctrl{i}") for i in range(4)]
        self.spine = self.b.counter(6)
        sel = self.spine[:3]
        self.enables = self.b.decoder(sel)
        self.data_pis = [self.b.pi(f"din{i}") for i in range(spec.bus_width)]
        #: Running total of :meth:`_estimated_aig_nodes` over its first
        #: ``_costed`` nodes.
        self._cost, self._costed = 0.0, 0

    def enable(self) -> int:
        # Module enables require a one-hot decoder state AND two control
        # pins: under testbench workloads (control pins parked near a rail)
        # most enables stay deasserted, idling whole modules — the paper's
        # "~70 % of gates show no transition activity" low-power behaviour.
        base = self.enables[int(self.rng.integers(0, len(self.enables)))]
        picks = self.rng.choice(len(self.ctrl_pis), size=2, replace=False)
        return self.b.and_(
            base, self.ctrl_pis[int(picks[0])], self.ctrl_pis[int(picks[1])]
        )

    def bus(self, width: int) -> list[int]:
        pool = self.data_pis + self.spine
        return [pool[int(self.rng.integers(0, len(pool)))] for _ in range(width)]

    # -- module kinds ---------------------------------------------------
    def fifo(self) -> None:
        en = self.enable()
        depth = int(self.rng.integers(3, 6))
        for lane in self.bus(self.spec.bus_width // 2 or 1):
            taps = self.b.shift_register(self.b.and_(lane, en), depth)
            self.b.po(taps[-1])

    def arbiter(self) -> None:
        reqs = self.bus(4)
        grant = self.b.fsm_one_hot(4, self.b.or_(*reqs), self.ctrl_pis[0])
        for g, r in zip(grant, reqs):
            self.b.po(self.b.and_(g, r))

    def crossbar(self) -> None:
        sel = self.bus(2)
        ins = self.bus(4)
        self.b.po(self.b.mux_tree(sel, ins))

    def divider(self) -> None:
        en = self.enable()
        width = int(self.rng.integers(4, self.spec.bus_width + 1))
        count = self.b.counter(width, enable=en)
        self.b.po(count[-1])

    def accumulator(self) -> None:
        en = self.enable()
        width = self.spec.bus_width
        state = [self.b.dff() for _ in range(width)]
        total, carry = self.b.ripple_adder(state, self.bus(width))
        for ff, s in zip(state, total):
            self.b.connect_dff(ff, self.b.mux(en, ff, s))
        self.b.po(carry)

    def filter(self) -> None:
        taps = self.b.shift_register(self.data_pis[0], 4)
        acc, carry = self.b.ripple_adder(taps[:2], taps[2:])
        self.b.po(self.b.parity_tree(acc + [carry]))

    def timer(self) -> None:
        en = self.enable()
        width = int(self.rng.integers(4, self.spec.bus_width + 1))
        count = self.b.counter(width, enable=en)
        match = self.b.equality(count, self.bus(width))
        self.b.po(match)

    def pwm(self) -> None:
        width = self.spec.bus_width
        count = self.b.counter(width)
        duty = self.b.register_bank(self.bus(width), enable=self.enable())
        self.b.po(self.b.equality(count, duty))

    def alarm(self) -> None:
        width = self.spec.bus_width
        now = self.b.counter(width)
        setting = self.b.register_bank(self.bus(width), enable=self.enable())
        self.b.po(self.b.equality(now, setting))

    def serializer(self) -> None:
        en = self.enable()
        data = self.b.register_bank(self.bus(8), enable=en)
        out = self.b.mux_tree(self.spine[:3], data)
        self.b.po(self.b.dff(out))

    def regbank(self) -> None:
        en = self.enable()
        regs = self.b.register_bank(self.bus(self.spec.bus_width), enable=en)
        self.b.po(self.b.parity_tree(regs))

    def decoder(self) -> None:
        outs = self.b.decoder(self.bus(3))
        gated = [self.b.and_(o, self.ctrl_pis[1]) for o in outs[:4]]
        self.b.po(self.b.or_(*gated))

    def fsm(self) -> None:
        states = self.b.fsm_one_hot(
            int(self.rng.integers(4, 9)), self.ctrl_pis[2], self.ctrl_pis[3]
        )
        self.b.po(self.b.parity_tree(states))

    def refresh(self) -> None:
        count = self.b.counter(self.spec.bus_width)
        hit = self.b.equality(count[: self.spec.bus_width // 2],
                              self.bus(self.spec.bus_width // 2))
        taps = self.b.shift_register(hit, 3)
        self.b.po(taps[-1])

    # -- assembly ---------------------------------------------------------
    def build(self) -> Netlist:
        kinds = [k for k, _ in self.spec.modules]
        weights = np.array([w for _, w in self.spec.modules], dtype=np.float64)
        weights /= weights.sum()
        # Grow until the AIG-cost estimate reaches the target.
        target = self.spec.paper_nodes * self.scale
        while self._estimated_aig_nodes() < target * 0.97:
            kind = kinds[int(self.rng.choice(len(kinds), p=weights))]
            getattr(self, kind)()
        return self.b.finish()

    def _estimated_aig_nodes(self) -> float:
        """The AIG-cost total of the design so far.  Only the nodes added
        since the last call are costed: a node's cost depends on its type
        and arity, and nothing but a DFF's data input (cost 1 either way)
        is rewired after a gate is added."""
        nl = self.b.nl
        for node in range(self._costed, len(nl)):
            gt = nl.gate_type(node)
            if gt in (GateType.PI, GateType.DFF):
                self._cost += 1.0
            else:
                arity = len(nl.fanins(node))
                cost = _AIG_COST.get(gt, 1.0)
                if gt in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR):
                    cost *= max(1, arity - 1)
                self._cost += cost
        self._costed = len(nl)
        return self._cost


def large_design(
    name: str, seed: int = 7, as_aig: bool = True, scale: float = 1.0
) -> Netlist:
    """Build one of the six Table IV stand-in designs.

    ``scale`` shrinks the node-count target proportionally — the quick
    experiment mode trains on 1/8-scale versions (same module mixture and
    structure, fewer module instances) to fit CPU budgets; ``scale=1.0``
    reproduces the paper's sizes.
    """
    try:
        spec = LARGE_DESIGN_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown design {name!r}; choose from {sorted(LARGE_DESIGN_SPECS)}"
        ) from None
    nl = _IpCoreBuilder(spec, seed, scale=scale).build()
    return to_aig(nl).aig if as_aig else nl


def load_design(
    source: str | Path,
    *,
    as_aig: bool = True,
    seed: int = 7,
    scale: float = 1.0,
) -> Netlist:
    """One front door for every design a scale suite can name.

    ``source`` resolves in order:

    * a path ending in ``.bench`` — parsed with
      :func:`repro.circuit.bench.parse_bench_file`;
    * a path ending in ``.aag`` / ``.aig`` — read with
      :func:`repro.circuit.aiger.read_aiger_file` (ASCII or binary AIGER);
    * a :data:`LARGE_DESIGN_SPECS` name (``noc_router`` ...) — built with
      :func:`large_design` under ``seed``/``scale``;
    * ``"hier"`` or ``"hier:<cloud_gates>"`` — a generated hierarchical
      block-composed core (:func:`repro.circuit.generate.hierarchical_netlist`);
      ``hier:12000`` yields roughly 50k nodes.

    ``as_aig=True`` (default) lowers whatever was loaded with
    :func:`repro.circuit.aig.to_aig`, so the result feeds the GNN runtime
    directly; ``as_aig=False`` returns the raw library-gate netlist for
    the simulator, which accepts either form.
    """
    path = Path(source)
    suffix = path.suffix.lower()
    if suffix in (".aag", ".aig"):
        from repro.circuit.aiger import read_aiger_file

        nl = read_aiger_file(path)
    elif suffix == ".bench":
        from repro.circuit.bench import parse_bench_file

        nl = parse_bench_file(path)
    else:
        name = str(source)
        if name in LARGE_DESIGN_SPECS:
            return large_design(name, seed=seed, as_aig=as_aig, scale=scale)
        if name == "hier" or name.startswith("hier:"):
            from repro.circuit.generate import (
                HierarchicalConfig,
                hierarchical_netlist,
            )

            config = (
                HierarchicalConfig()
                if name == "hier"
                else HierarchicalConfig(cloud_gates=int(name.split(":", 1)[1]))
            )
            nl = hierarchical_netlist(config, seed=seed)
        else:
            raise ValueError(
                f"cannot resolve design {name!r}: not a .bench/.aag/.aig "
                f"path, not one of {sorted(LARGE_DESIGN_SPECS)}, and not a "
                "'hier'/'hier:<cloud_gates>' generator spec"
            )
    return to_aig(nl).aig if as_aig else nl

"""SAIF (Switching Activity Interchange Format) writer and parser.

The power pipeline (paper Fig. 3) translates transition probabilities from
each method — logic simulation (GT), the probabilistic baseline, Grannite
and DeepSeq — into SAIF files consumed by a power analysis tool.  This
module implements the subset of IEEE 1801-style SAIF the flow needs:
per-signal ``T0`` / ``T1`` / ``TC`` (time at 0, time at 1, toggle count)
records inside an ``INSTANCE`` block.

Activity is expressed per clock cycle and scaled by ``duration`` (the
simulated time span in cycles): ``T1 = logic_prob * duration``,
``TC = (p01 + p10) * (duration - 1)`` rounded to integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.circuit.netlist import Netlist

__all__ = ["SignalActivity", "SaifDocument", "activity_from_probs", "parse_saif"]


@dataclass(frozen=True)
class SignalActivity:
    """One SAIF NET record."""

    name: str
    t0: int
    t1: int
    tc: int


@dataclass
class SaifDocument:
    """An in-memory SAIF file: a design name, duration and NET records."""

    design: str
    duration: int
    signals: list[SignalActivity]

    def toggle_rate(self) -> dict[str, float]:
        """Toggles per cycle per signal (TC normalized by duration-1)."""
        pairs = max(self.duration - 1, 1)
        return {s.name: s.tc / pairs for s in self.signals}

    def logic_prob(self) -> dict[str, float]:
        return {s.name: s.t1 / max(self.duration, 1) for s in self.signals}

    def dumps(self) -> str:
        """Serialize; rejects signal names the format cannot carry.

        A name containing whitespace or parentheses would serialize into
        a record that :func:`parse_saif` (and real SAIF consumers) either
        drops or truncates at the first delimiter — a silent round-trip
        corruption.  Such names fail loudly here instead.
        """
        lines = [
            "(SAIFILE",
            '  (SAIFVERSION "2.0")',
            f'  (DESIGN "{self.design}")',
            '  (TIMESCALE 1 ns)',
            f"  (DURATION {self.duration})",
            f'  (INSTANCE "{self.design}"',
            "    (NET",
        ]
        for s in self.signals:
            if not _SAFE_NAME_RE.fullmatch(s.name):
                raise ValueError(
                    f"signal name {s.name!r} cannot be written to SAIF: "
                    "names must be non-empty and free of whitespace and "
                    "parentheses"
                )
            lines.append(
                f"      ({s.name} (T0 {s.t0}) (T1 {s.t1}) (TC {s.tc}))"
            )
        lines += ["    )", "  )", ")"]
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())


def activity_from_probs(
    nl: Netlist,
    logic_prob: np.ndarray,
    tr01: np.ndarray,
    tr10: np.ndarray,
    duration: int = 10_000,
) -> SaifDocument:
    """Build a SAIF document from per-node probabilities.

    Probabilities are clipped into valid ranges so model *predictions*
    (which may slightly overshoot [0, 1]) always serialize to a legal file.
    """
    n = len(nl)
    for arr, label in ((logic_prob, "logic_prob"), (tr01, "tr01"), (tr10, "tr10")):
        if len(arr) != n:
            raise ValueError(f"{label} has {len(arr)} entries for {n} nodes")
    lp = np.clip(np.asarray(logic_prob, dtype=np.float64), 0.0, 1.0)
    tc = np.clip(np.asarray(tr01, dtype=np.float64), 0.0, 1.0) + np.clip(
        np.asarray(tr10, dtype=np.float64), 0.0, 1.0
    )
    pairs = max(duration - 1, 1)
    signals = []
    for i in nl.nodes():
        t1 = int(round(lp[i] * duration))
        signals.append(
            SignalActivity(
                name=nl.node_name(i),
                t0=duration - t1,
                t1=t1,
                tc=int(round(tc[i] * pairs)),
            )
        )
    return SaifDocument(design=nl.name, duration=duration, signals=signals)


#: Names that survive a dump → parse round trip verbatim (must be a subset
#: of what ``_NET_RE`` matches as one token).
_SAFE_NAME_RE = re.compile(r"[^\s()]+")

_NET_RE = re.compile(
    r"\(\s*(?P<name>[^\s()]+)\s*\(T0\s+(?P<t0>\d+)\)\s*\(T1\s+(?P<t1>\d+)\)"
    r"\s*\(TC\s+(?P<tc>\d+)\)\s*\)"
)
_DURATION_RE = re.compile(r"\(DURATION\s+(\d+)\)")
_QUOTED_RE = re.compile(r'"[^"]*"')
_DESIGN_RE = re.compile(r'\(DESIGN\s+"([^"]*)"\)')


def parse_saif(text: str) -> SaifDocument:
    """Parse SAIF text produced by :meth:`SaifDocument.dumps`.

    Raises ``ValueError`` when the parentheses outside quoted strings do
    not balance: a truncated file would otherwise parse with its
    remaining NET records silently dropped.
    """
    bare = _QUOTED_RE.sub("", text)
    opened, closed = bare.count("("), bare.count(")")
    if opened != closed:
        raise ValueError(
            f"SAIF file is truncated or malformed: {opened} '(' against "
            f"{closed} ')'"
        )
    duration_m = _DURATION_RE.search(text)
    if not duration_m:
        raise ValueError("SAIF file missing DURATION record")
    design_m = _DESIGN_RE.search(text)
    signals = [
        SignalActivity(
            name=m.group("name"),
            t0=int(m.group("t0")),
            t1=int(m.group("t1")),
            tc=int(m.group("tc")),
        )
        for m in _NET_RE.finditer(text)
    ]
    return SaifDocument(
        design=design_m.group(1) if design_m else "unknown",
        duration=int(duration_m.group(1)),
        signals=signals,
    )

"""Explicit memory budgets for plan construction and execution.

The compile-and-execute spine (``repro.sim`` block plans, ``repro.runtime``
graph plans) historically sized its working buffers linearly with node
count.  A :class:`MemoryBudget` makes the bound explicit: plan builders
receive one and keep their *resident* buffers under it — by shrinking
history depth and by cutting per-level work into chunks served from a
bounded arena — while guaranteeing that the budget never changes a single
result bit, nor which loop executes: a budgeted plan is the same plan cut
finer.  Budgets bound bookkeeping buffers (gathers, histories, feature
rows, fault-mask chunks), not the irreducible per-node state itself (one
value/hidden row per node must exist somewhere for per-node statistics to
exist at all).

This module sits above ``repro.circuit`` / ``repro.sim`` / ``repro.runtime``
so every layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryBudget"]


def _positive_or_none(value: int | None, name: str) -> int | None:
    if value is None:
        return None
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1 byte (or None for unlimited)")
    return value


@dataclass(frozen=True)
class MemoryBudget:
    """Byte bounds threaded through plan construction.

    Attributes:
        plan_bytes: bound on a plan's resident evaluation buffers — the
            gather arena of a :class:`repro.sim.logicsim.SimPlan`, or the
            summed per-level feature rows
            (:meth:`repro.runtime.plan.GraphPlan.resident_bytes`) of the
            members a ``BatchedPredictor`` packs into one sweep.
            ``None`` = unlimited.
        history_bytes: bound on per-cycle windows — the block executor's
            ``(block_cycles, N, words)`` value history and the chunk of
            fault masks its lockstep loop prepares ahead.  A window never
            drops below one cycle; instead of growing it, oversized
            designs flush each window to their observers and reuse the
            buffer.  ``None`` falls back to the flat default caps.

    Budgets are advisory *sizes*, never semantics: every execution mode
    selected by a budget is float64-bitwise-identical to the unbudgeted
    path (the differential and golden-hash tests enforce this).
    """

    plan_bytes: int | None = None
    history_bytes: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "plan_bytes", _positive_or_none(self.plan_bytes, "plan_bytes")
        )
        object.__setattr__(
            self,
            "history_bytes",
            _positive_or_none(self.history_bytes, "history_bytes"),
        )

    @classmethod
    def unlimited(cls) -> "MemoryBudget":
        """A budget imposing no bounds (identical to passing ``None``)."""
        return cls()

    def allows_plan(self, nbytes: int) -> bool:
        """True when ``nbytes`` of resident plan buffers fit the budget."""
        return self.plan_bytes is None or nbytes <= self.plan_bytes

    def cap_count(self, item_bytes: int, want: int, *, floor: int = 1) -> int:
        """Largest count of ``item_bytes``-sized items <= ``history_bytes``.

        Mirrors the block engine's history sizing: never below ``floor``
        (a one-cycle window always exists), never above ``want``.
        """
        if item_bytes < 1:
            item_bytes = 1
        if self.history_bytes is None:
            return max(floor, want)
        return max(floor, min(want, self.history_bytes // item_bytes))

"""The byte bounds threaded through plan construction (:mod:`repro.memory`).

The plan builders' use of a budget is pinned by the engine and predictor
tests; this pins the record's own contract: validation, coercion and the
window-sizing arithmetic every history buffer goes through.
"""

import dataclasses

import numpy as np
import pytest

from repro.memory import MemoryBudget


@pytest.mark.parametrize("field", ["plan_bytes", "history_bytes"])
@pytest.mark.parametrize("value", [0, -1])
def test_bounds_below_one_byte_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1 byte"):
        MemoryBudget(**{field: value})


def test_bounds_are_coerced_to_int():
    budget = MemoryBudget(plan_bytes=np.int64(5), history_bytes=10.0)
    assert budget.plan_bytes == 5 and type(budget.plan_bytes) is int
    assert budget.history_bytes == 10 and type(budget.history_bytes) is int


def test_unlimited_is_the_default_and_frozen():
    budget = MemoryBudget.unlimited()
    assert budget == MemoryBudget()
    assert budget.plan_bytes is None and budget.history_bytes is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        budget.plan_bytes = 1


def test_allows_plan_up_to_the_bound_inclusive():
    budget = MemoryBudget(plan_bytes=4096)
    assert budget.allows_plan(0)
    assert budget.allows_plan(4096)
    assert not budget.allows_plan(4097)
    # The history bound plays no part in the plan check.
    assert MemoryBudget(history_bytes=1).allows_plan(1 << 40)


@pytest.mark.parametrize(
    "history_bytes, item_bytes, want, floor, expected",
    [
        (None, 10, 64, 1, 64),  # unbounded: the wanted count
        (None, 10, 0, 1, 1),  # ... but never below the floor
        (100, 10, 64, 1, 10),  # the bound divides into items
        (100, 30, 64, 1, 3),  # partial items round down
        (100, 10, 5, 1, 5),  # never above the wanted count
        (100, 1000, 64, 1, 1),  # one item over budget still gets a window
        (100, 30, 64, 4, 4),  # a larger floor wins over the bound
        (100, 0, 64, 1, 64),  # zero-byte items count as one byte
    ],
)
def test_cap_count(history_bytes, item_bytes, want, floor, expected):
    budget = MemoryBudget(history_bytes=history_bytes)
    assert budget.cap_count(item_bytes, want, floor=floor) == expected

"""Rule registry: one instance of every invariant check.

Rule ids are stable and documented in ``docs/lint.md``; suppression
comments and the ``disable`` config key refer to them by id.
"""

from __future__ import annotations

from repro.lint.core import Rule
from repro.lint.rules.cachekey import CacheKeyDriftRule
from repro.lint.rules.idcache import IdKeyedCacheRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.mp import MpSafetyRule
from repro.lint.rules.rng import GlobalRngRule
from repro.lint.rules.shm import ShmHygieneRule

__all__ = ["all_rules", "rule_table"]


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [
        GlobalRngRule(),
        MpSafetyRule(),
        LockDisciplineRule(),
        ShmHygieneRule(),
        CacheKeyDriftRule(),
        IdKeyedCacheRule(),
    ]


def rule_table() -> list[tuple[str, str]]:
    """``(rule_id, summary)`` pairs for ``--list-rules``."""
    return [(r.rule_id, r.summary) for r in all_rules()]

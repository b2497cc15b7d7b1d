"""REP002: multiprocessing safety — never the platform-default fork.

Forking a process that already runs threads (a live ``Server``, a
``Gateway`` event loop, the caller's own pool) copies every
lock in whatever state the fork caught it; a lock held by a thread that
does not exist in the child deadlocks the child the first time it
touches the allocator or a cache lock.  PR 7 shipped exactly this fix
for the data factory.  The sanctioned path is
``repro.runtime.mp.resolve_mp_context`` (forkserver-with-preload, spawn
fallback): every ``ProcessPoolExecutor`` must pass ``mp_context=``, and
raw ``multiprocessing.Pool``/``Process``/``get_context``/
``set_start_method`` calls are banned outside the mp module itself.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint.core import Finding, ModuleContext, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.config import LintConfig

__all__ = ["MpSafetyRule"]

#: multiprocessing attributes that spawn or configure worker processes
#: using the platform-default start method when called raw.
_BANNED_MP = {
    "multiprocessing.Pool": (
        "multiprocessing.Pool inherits the platform-default start method "
        "(fork on Linux); use ProcessPoolExecutor with "
        "mp_context=resolve_mp_context(...) or ctx.Pool on a resolved "
        "context"
    ),
    "multiprocessing.Process": (
        "raw multiprocessing.Process uses the platform-default start "
        "method; create processes via resolve_mp_context(...).Process"
    ),
    "multiprocessing.get_context": (
        "call repro.runtime.mp.resolve_mp_context instead of "
        "multiprocessing.get_context so the forkserver-preload policy is "
        "applied in one place"
    ),
    "multiprocessing.set_start_method": (
        "multiprocessing.set_start_method mutates process-global state; "
        "pass explicit contexts from resolve_mp_context instead"
    ),
}

_EXECUTOR_NAMES = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}


class MpSafetyRule(Rule):
    rule_id = "REP002"
    summary = (
        "worker processes must come from resolve_mp_context (explicit "
        "forkserver/spawn), never the platform-default fork"
    )

    def check_module(
        self, ctx: ModuleContext, config: "LintConfig"
    ) -> Iterable[Finding]:
        allow = self.options(config).get(
            "allow", config.rule_option(self.rule_id, "allow", [])
        )
        if self.path_matches(ctx.relpath, allow):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target is None:
                continue
            if target in _BANNED_MP:
                yield Finding(
                    rule=self.rule_id,
                    path=ctx.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=_BANNED_MP[target],
                )
            elif target in _EXECUTOR_NAMES or target.endswith(
                ".ProcessPoolExecutor"
            ):
                if not any(kw.arg == "mp_context" for kw in node.keywords):
                    yield Finding(
                        rule=self.rule_id,
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "ProcessPoolExecutor without mp_context= uses "
                            "the platform-default fork; pass "
                            "mp_context=resolve_mp_context(...)"
                        ),
                    )

"""Process-context discipline: explicit start methods, never default fork.

Every place this repo spawns worker processes (the data factory's
``ProcessPoolExecutor``, the serving gateway's model workers) must pass an
*explicit* multiprocessing context.  The platform default on Linux is
``fork``, and forking a process that already runs threads — a live
:class:`repro.serve.Server` with K workers, a gateway's event-loop thread,
or simply the caller's own thread pool — copies every lock in whatever
state the forking instant caught it.  A lock held by a thread that does
not exist in the child stays held forever, and the child deadlocks the
first time it touches the allocator, the plan-cache lock, or a logging
handle.  The bug is probabilistic (it needs the fork to land inside a
critical section), which is exactly why it must be impossible by
construction rather than caught by tests.

:func:`resolve_mp_context` therefore prefers ``forkserver`` — children
fork from a pristine single-threaded server process, so the cheap-fork
property is kept without inheriting the parent's threads — and falls back
to ``spawn`` where no forkserver exists.  The forkserver preloads
``repro`` once, so per-worker startup does not re-pay the numpy/repro
import.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["resolve_mp_context", "SAFE_METHODS"]

#: Start methods that never inherit the parent's thread/lock state.
SAFE_METHODS = ("forkserver", "spawn")

#: Modules imported into the forkserver process before the first fork, so
#: every worker inherits them pre-imported instead of importing per child.
_PRELOAD = ["repro"]

_PRELOADED: set[str] = set()


def resolve_mp_context(
    method: str | None = None,
) -> multiprocessing.context.BaseContext:
    """An explicit multiprocessing context; never the platform default.

    Args:
        method: ``"forkserver"``, ``"spawn"`` or ``"fork"`` to force one;
            ``None`` picks the first of :data:`SAFE_METHODS` the platform
            supports.  ``"fork"`` must be requested explicitly — callers
            doing so own the no-threads-at-fork-time proof.

    Returns the singleton context for the chosen method, with ``repro``
    preloaded into the forkserver when that method is selected.
    """
    if method is not None:
        ctx = multiprocessing.get_context(method)
    else:
        ctx = None
        for candidate in SAFE_METHODS:
            try:
                ctx = multiprocessing.get_context(candidate)
                break
            except ValueError:
                continue
        if ctx is None:  # pragma: no cover - every platform has spawn
            ctx = multiprocessing.get_context("spawn")
    if ctx.get_start_method() == "forkserver" and "forkserver" not in _PRELOADED:
        # Idempotent and a no-op once the forkserver is already running;
        # contexts are per-method singletons, so the method name is the
        # stable key (an id() key here would be the REP006 bug class).
        ctx.set_forkserver_preload(_PRELOAD)
        _PRELOADED.add("forkserver")
    return ctx

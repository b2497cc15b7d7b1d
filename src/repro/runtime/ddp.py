"""Deterministic data-parallel training: sharded steps, fixed-order reduce.

Data parallelism here means sharding each *gradient-accumulation group*
over W worker processes plus the coordinator: the sequential trainer
turns every group of ``grad_accum`` packed minibatches into one optimizer
step, so the group is the unit of work that can fan out without changing
what the step computes.  Each worker holds a model replica (restored
through the :func:`repro.nn.serialize.dumps_state` npz byte round-trip,
so replica float64 parameters are bitwise-identical to the
coordinator's), runs the fused :func:`repro.runtime.trainstep.train_step`
on its assigned batches, and ships the resulting float64 gradients back
through a :mod:`repro.runtime.shm` arena.  The coordinator is the last
rank: once the step message is out it trains its own batches in-process
on the live model, then collects the workers' replies — so with W = 1 a
two-batch group runs on two cores, not one after the other on one.

**The bitwise guarantee.**  The coordinator reduces per-batch gradients
with :func:`tree_reduce` — pairwise summation in a tree pinned to the
group's *batch position order*, never to worker completion order or worker
count.  Because each batch's gradient is itself bitwise-deterministic
(row-deterministic kernels, replicas restored bitwise, identical packing
of the same member order), the reduced update is bitwise-identical at any
worker count — including W=1 and the in-process
:class:`LocalGradExecutor`, which runs the *same* per-batch
compute-then-tree-reduce discipline (and is what every rank, the
coordinator included, runs its share through).  Floating-point addition
is not associative, so this only holds because every worker count sums
the same numbers in the same tree; that pinned order is the whole point
of this module.

The processes are a :class:`repro.runtime.workers.WorkerPool` (spawn,
handshake, pool-owned segments, shutdown — shared with the serving
gateway); this module adds the ``step`` message handler and the
coordinator's side of it.  Parameters broadcast through the pool's
float64 parameter block, rewritten once per optimizer step (the protocol
is lock-step — workers only read between the coordinator's ``step``
message and their ``grads`` reply, and the coordinator's own share only
reads its parameters, so the rewrite can never race a reader).  A failed
step — a worker death or error, or the coordinator's own share raising —
stops the pool and raises a typed :class:`DdpError`; training resumes
from the last checkpoint rather than limping on with a silently shrunken
group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.runtime.shm import arena_nbytes, collect_arrays, stage_arrays
from repro.runtime.workers import WorkerPool

if TYPE_CHECKING:  # runtime import would cycle through repro.train
    from repro.train.dataset import CircuitSample

__all__ = [
    "DdpError",
    "tree_reduce",
    "reduce_gradients",
    "BatchGrads",
    "LocalGradExecutor",
    "DdpGradExecutor",
]

#: Arena tag of a rank's gradient arena.
GRADS = "grad"


class DdpError(RuntimeError):
    """A data-parallel worker failed or died mid-run.

    The training step that was in flight did not complete; the run must
    be restarted (typically from its last checkpoint) — partial groups
    are never applied.
    """


# ----------------------------------------------------------------------
# fixed-order reduction
# ----------------------------------------------------------------------

def tree_reduce(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise-tree sum of ``arrays`` in their given order.

    Round k sums adjacent pairs ``(a0+a1, a2+a3, ...)``, carrying an odd
    tail element unchanged, until one array remains.  The association is a
    pure function of ``len(arrays)`` and the input order — evaluating the
    same list on any machine, in any process layout, yields bitwise the
    same float64 sum.  A single-element list is returned as-is (no copy).
    """
    if not arrays:
        raise ValueError("tree_reduce of zero arrays")
    level = list(arrays)
    while len(level) > 1:
        nxt = [
            level[i] + level[i + 1] if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        level = nxt
    return level[0]


def reduce_gradients(
    per_batch: Sequence[Sequence[np.ndarray | None]],
) -> list[np.ndarray | None]:
    """All-reduce per-batch gradient lists into one list per parameter.

    ``per_batch[b][i]`` is batch ``b``'s gradient for parameter ``i`` (in
    group batch-position order), or ``None`` when the batch produced no
    gradient for it.  Each parameter reduces over its *present* entries
    with :func:`tree_reduce`; presence is structure-determined (which
    batches touch which parameters), so the tree shape stays independent
    of how the batches were sharded over workers.
    """
    if not per_batch:
        raise ValueError("reduce_gradients of zero batches")
    n_params = len(per_batch[0])
    reduced: list[np.ndarray | None] = []
    for i in range(n_params):
        entries = [grads[i] for grads in per_batch if grads[i] is not None]
        reduced.append(tree_reduce(entries) if entries else None)
    return reduced


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------

@dataclass
class BatchGrads:
    """One batch's contribution to a sharded optimizer step.

    Attributes:
        grads: per-parameter float64 gradients (``None`` where the batch
            produced none), in ``model.parameters()`` order.
        member_tr / member_lg: the unpacked per-circuit L1 means from
            :class:`~repro.runtime.trainstep.StepResult`, for epoch stats.
    """

    grads: list[np.ndarray | None]
    member_tr: np.ndarray
    member_lg: np.ndarray


class LocalGradExecutor:
    """In-process executor: the W=0 reference for the sharded step.

    Packs each minibatch's member samples with
    :func:`~repro.runtime.trainstep.pack_samples`, then runs each group
    batch through ``train_step`` with a fresh gradient buffer
    (``zero_grad`` per batch) and hands the per-batch gradients to the
    caller's :func:`reduce_gradients` — exactly the discipline the
    multi-process executor distributes, so sequential training is the
    W-independent reduction's own W=1 case.  Every DDP rank, the
    coordinator included, computes its share through one of these.
    """

    def __init__(
        self,
        model,
        batch_members: Sequence[Sequence["CircuitSample"]],
        tr_weight: float = 1.0,
        lg_weight: float = 1.0,
    ) -> None:
        from repro.runtime.trainstep import pack_samples, train_step  # cycle guard

        self._train_step = train_step
        self.model = model
        self.batches = [pack_samples(members) for members in batch_members]
        self.tr_weight = tr_weight
        self.lg_weight = lg_weight
        self._params = model.parameters()

    def run_group(
        self, items: Sequence[tuple[int, float]]
    ) -> list[BatchGrads]:
        """Compute gradients for ``(batch_index, loss_scale)`` items."""
        out: list[BatchGrads] = []
        for batch_index, loss_scale in items:
            self.model.zero_grad()
            result = self._train_step(
                self.model,
                self.batches[batch_index],
                tr_weight=self.tr_weight,
                lg_weight=self.lg_weight,
                loss_scale=loss_scale,
            )
            # backward() builds fresh gradient arrays per pass (zero_grad
            # drops the old ones), so holding references is aliasing-safe.
            out.append(
                BatchGrads(
                    grads=[p.grad for p in self._params],
                    member_tr=result.member_tr,
                    member_lg=result.member_lg,
                )
            )
        return out

    def close(self) -> None:  # symmetry with DdpGradExecutor
        pass

    def __enter__(self) -> "LocalGradExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_handler(replica, param_views, arenas, payload):
    """The ``step`` handler of one DDP worker rank.

    ``payload`` is ``(batch_members, tr_weight, lg_weight)``:
    ``batch_members`` holds, per minibatch, the member samples in packing
    order; the worker packs them locally, landing on the same union plan
    (same member order ⇒ same structure ⇒ same cached fingerprint) the
    coordinator builds.
    """
    from repro.nn.module import bump_parameter_version

    batch_members, tr_weight, lg_weight = payload
    params = replica.parameters()
    grad_arena = arenas[GRADS]
    local = LocalGradExecutor(replica, batch_members, tr_weight, lg_weight)

    def handle(msg: tuple) -> tuple:
        if msg[0] != "step":  # pragma: no cover - protocol bug
            return ("err", None, f"bad op {msg[0]!r}")
        _, step_id, items = msg
        try:
            # Lock-step parameter sync: the coordinator rewrote the
            # block before sending this message and will not touch it
            # again until our ``grads`` reply arrives.
            for p, view in zip(params, param_views):
                p.data[...] = view
            bump_parameter_version()
            results = local.run_group([(bi, scale) for _, bi, scale in items])
            replies = []
            cursor = 0
            for (position, _, _), r in zip(items, results):
                mask = [g is not None for g in r.grads]
                meta, cursor = stage_arrays(
                    grad_arena, [g for g in r.grads if g is not None], cursor
                )
                replies.append((position, mask, meta, r.member_tr, r.member_lg))
            return ("grads", step_id, replies)
        except Exception as exc:
            return ("err", step_id, f"{type(exc).__name__}: {exc}")

    return handle


class DdpGradExecutor:
    """Coordinator for W data-parallel training workers, itself rank W.

    Spawned once per :meth:`repro.train.trainer.Trainer.train` call with
    the run's full minibatch list; :meth:`run_group` shards a group's
    batches round-robin over the W + 1 ranks — the workers first, the
    coordinator last — computes the coordinator's share while the workers
    compute theirs, collects each worker batch's gradients (shm arena,
    inline fallback), and returns them all in batch-position order —
    ready for the caller's :func:`reduce_gradients`, whose pinned tree
    makes the update identical to the in-process executor's.
    """

    def __init__(
        self,
        model,
        batch_members: Sequence[Sequence["CircuitSample"]],
        workers: int,
        tr_weight: float = 1.0,
        lg_weight: float = 1.0,
        grad_accum: int = 1,
        mp_start_method: str | None = None,
        spawn_timeout: float = 120.0,
    ) -> None:
        if workers < 1:
            raise ValueError("DdpGradExecutor needs workers >= 1")
        self.workers = workers
        self._params = model.parameters()
        self._step_id = 0
        self._closed = False
        # Per-worker gradient arenas, sized for the worst-case share of a
        # group (ceil(grad_accum / (W + 1)) batches, one full gradient set
        # each) — rank 0 takes the most positions of any rank.
        share = -(-max(1, grad_accum) // (workers + 1))
        per_batch = arena_nbytes([p.data for p in self._params])
        # Lean member copies: ``extras`` can hold whole SimResults, which
        # no rank needs and would otherwise ride every spawn.
        lean = [[replace(s, extras={}) for s in members] for members in batch_members]
        # The pool's float64 parameter block is the broadcast path for
        # post-step parameters.  Workers start from the npz bytes
        # (bitwise-equal already) and re-sync from this block every step.
        self._pool = WorkerPool(
            model,
            make_handler,
            workers=workers,
            arena_bytes={GRADS: max(1, share * per_batch)},
            error=DdpError,
            payload=(lean, tr_weight, lg_weight),
            param_dtype=np.float64,
            mp_start_method=mp_start_method,
            name="train-ddp-worker",
            spawn_timeout=spawn_timeout,
        )
        self._param_views = [
            self._pool.param_block.ndarray(off, shape, np.float64)
            for off, shape in self._pool.param_layout
        ]
        try:
            self._local = LocalGradExecutor(model, lean, tr_weight, lg_weight)
        except BaseException:
            self.close()
            raise

    @property
    def _procs(self) -> list:
        """The worker processes, in rank order."""
        return [handle.proc for handle in self._pool.handles]

    # ------------------------------------------------------------------
    def run_group(
        self, items: Sequence[tuple[int, float]]
    ) -> list[BatchGrads]:
        """Shard one accumulation group's batches over the W + 1 ranks.

        ``items`` is the group's ``(batch_index, loss_scale)`` sequence in
        batch-position order; position ``p`` goes to rank ``p % (W + 1)``,
        where ranks ``0..W-1`` are the workers and rank ``W`` is this
        coordinator.  The returned list is re-assembled in position order
        regardless of which rank computed what — the reduction consuming
        it must not see worker topology.  Any failure stops the pool and
        raises :class:`DdpError`; the executor is closed afterwards.
        """
        if self._closed:
            raise DdpError("executor is closed")
        self._step_id += 1
        try:
            return self._run_step(self._step_id, items)
        except Exception as exc:
            self.close()
            if isinstance(exc, DdpError):
                raise
            raise DdpError(
                f"ddp coordinator failed in step {self._step_id}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _publish_params(self) -> None:
        # Its own frame, so no block view outlives the loop: a failed
        # step's traceback must not pin the mapping close() releases.
        for view, p in zip(self._param_views, self._params):
            view[...] = p.data

    def _run_step(
        self, step_id: int, items: Sequence[tuple[int, float]]
    ) -> list[BatchGrads]:
        self._publish_params()
        assignments: dict[int, list[tuple[int, int, float]]] = {}
        for position, (batch_index, loss_scale) in enumerate(items):
            rank = position % (self.workers + 1)
            assignments.setdefault(rank, []).append(
                (position, batch_index, loss_scale)
            )
        own = assignments.pop(self.workers, [])
        handles = self._pool.handles
        for rank, assigned in assignments.items():
            try:
                handles[rank].conn.send(("step", step_id, assigned))
            except OSError as exc:
                raise DdpError(f"ddp worker {rank} is gone: {exc}") from None
        results: list[BatchGrads | None] = [None] * len(items)
        # The coordinator's share, while the workers compute theirs.
        mine = self._local.run_group([(bi, scale) for _, bi, scale in own])
        for (position, _, _), result in zip(own, mine):
            results[position] = result
        for rank in assignments:
            try:
                msg = handles[rank].conn.recv()
            except (EOFError, OSError):
                raise DdpError(
                    f"ddp worker {rank} died with step {step_id} in flight"
                ) from None
            if msg[0] == "err":
                raise DdpError(f"ddp worker {rank} failed: {msg[2]}")
            if msg[0] != "grads" or msg[1] != step_id:  # pragma: no cover
                raise DdpError(f"ddp worker {rank} bad reply: {msg[0]!r}")
            for position, mask, meta, member_tr, member_lg in msg[2]:
                # Owned copies: the reduction must not read an arena the
                # next step rewrites.
                it = iter(
                    collect_arrays(handles[rank].arenas[GRADS], meta, np.float64)
                )
                grads = [next(it) if m else None for m in mask]
                results[position] = BatchGrads(
                    grads=grads, member_tr=member_tr, member_lg=member_lg
                )
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every shm segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._param_views = []  # views over the block stop() unmaps
        self._pool.stop(timeout=10.0)

    def __enter__(self) -> "DdpGradExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

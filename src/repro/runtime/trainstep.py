"""Packed training minibatches on the compiled-plan runtime.

Training shares the serving runtime's machinery: a minibatch of
:class:`~repro.train.dataset.CircuitSample` members is packed into one
disjoint super-graph via :func:`repro.runtime.pack.pack_graphs`, compiled
once into a :class:`~repro.runtime.plan.GraphPlan` (cached process-wide by
content hash), and trained with a single levelized forward/backward sweep —
level ``k`` of every member lands in the same vectorized edge batch, so the
per-level Python overhead is amortized across the whole minibatch.

Equivalence guarantee: a packed step computes bitwise-identical float64
gradients to a forward + backward on one sample built over the members'
union netlist (the ``merge_samples`` oracle of
``tests/runtime/test_differential.py``), because packing concatenates the
same disjoint union (same member order ⇒ same structure ⇒ same cached
plan), the packed batch keeps union-level initial hidden states, and the
loss is taken over the whole union.  Per-member losses
are *unpacked* after the fact for reporting only — they never perturb the
optimization objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuit.compose import MemberLayout
from repro.models.base import RecurrentDagGnn
from repro.nn.layers import l1_loss_grad
from repro.runtime.pack import pack_graphs
from repro.runtime.plan import GraphPlan
from repro.sim.workload import Workload

if TYPE_CHECKING:  # runtime import would cycle through repro.train.trainer
    from repro.train.dataset import CircuitSample

__all__ = [
    "PackedBatch",
    "StepResult",
    "pack_samples",
    "minibatch_membership",
    "train_step",
]


@dataclass(frozen=True)
class PackedBatch(MemberLayout):
    """One compiled training minibatch: union plan + stacked supervision.

    Attributes:
        plan: compiled plan of the member union (for a single member, the
            member's own plan).
        workload: concatenation of member PI stimuli, in member order.
        target_tr: (N, 2) stacked transition-probability labels.
        target_lg: (N,) stacked logic-probability labels.
        names: member circuit names, for per-member reporting.
    """

    plan: GraphPlan
    workload: Workload
    target_tr: np.ndarray
    target_lg: np.ndarray
    names: tuple[str, ...]

    @property
    def graph(self):
        return self.plan.graph

    @property
    def num_nodes(self) -> int:
        return self.plan.num_nodes


@dataclass(frozen=True)
class StepResult:
    """Losses of one optimization step.

    ``loss``/``loss_tr``/``loss_lg`` are the *objective* values (L1 means
    over the whole union — what the gradients descend); ``member_tr`` and
    ``member_lg`` are the unpacked per-circuit L1 means used for reporting,
    so a 2,000-node member cannot drown out a 150-node one in the logs.
    """

    loss: float
    loss_tr: float
    loss_lg: float
    member_tr: np.ndarray
    member_lg: np.ndarray
    names: tuple[str, ...]


def pack_samples(
    samples: Sequence[CircuitSample], cache: bool = True
) -> PackedBatch:
    """Pack training samples into one compiled minibatch.

    Member graphs, labels and workloads concatenate in the given order;
    the union plan comes from the shared packed-plan LRU, so epoch 2
    onwards (and any other trainer packing the same composition) skips
    both union construction and plan compilation.
    """
    packed = pack_graphs([s.graph for s in samples], cache=cache)
    if len(samples) == 1:
        s = samples[0]
        workload = s.workload
        target_tr, target_lg = s.target_tr, s.target_lg
    else:
        workload = Workload(
            np.concatenate([s.workload.pi_probs for s in samples]),
            name=f"pack{len(samples)}",
            seed=samples[0].workload.seed,
        )
        target_tr = np.concatenate([s.target_tr for s in samples], axis=0)
        target_lg = np.concatenate([s.target_lg for s in samples])
    return PackedBatch(
        sizes=packed.sizes,
        plan=packed.plan,
        workload=workload,
        target_tr=target_tr,
        target_lg=target_lg,
        names=tuple(s.name for s in samples),
    )


def minibatch_membership(
    count: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Partition ``count`` sample indices into minibatch member lists.

    ``rng`` shuffles the membership (which samples share a union); pass
    ``None`` for sequential assignment.  Membership is separate from
    packing because the trainer's data-parallel path ships member samples
    to workers that pack locally, and both paths must consume the ``rng``
    stream identically or sequential and sharded runs would build
    different batches from the same seed.
    """
    order = list(range(count))
    if rng is not None:
        rng.shuffle(order)
    size = max(1, int(batch_size))
    return [order[lo : lo + size] for lo in range(0, len(order), size)]


def train_step(
    model: RecurrentDagGnn,
    batch: PackedBatch,
    tr_weight: float = 1.0,
    lg_weight: float = 1.0,
    loss_scale: float = 1.0,
) -> StepResult:
    """Forward + backward on one packed minibatch (no optimizer step).

    Gradients *accumulate* into the model's parameters — the caller owns
    ``zero_grad``/``step``, which is what makes gradient accumulation a
    caller-side loop.  ``loss_scale`` scales the backpropagated gradient
    (not the reported losses); accumulation over a group of G batches
    passes ``1/G`` so the accumulated gradient is the group mean.
    """
    log: list = []
    pred_tr, pred_lg = model.forward(
        batch.graph, batch.workload, plan=batch.plan, log=log
    )
    loss_tr, d_tr = l1_loss_grad(pred_tr, batch.target_tr, loss_scale * tr_weight)
    loss_lg, d_lg = l1_loss_grad(
        pred_lg, batch.target_lg[:, None], loss_scale * lg_weight
    )
    model.backward(log, d_tr, d_lg)
    member_tr = np.empty(batch.num_members)
    member_lg = np.empty(batch.num_members)
    for k in range(batch.num_members):
        sl = batch.member_slice(k)
        member_tr[k] = np.abs(pred_tr[sl] - batch.target_tr[sl]).mean()
        member_lg[k] = np.abs(pred_lg[sl, 0] - batch.target_lg[sl]).mean()
    return StepResult(
        loss=tr_weight * loss_tr + lg_weight * loss_lg,
        loss_tr=loss_tr,
        loss_lg=loss_lg,
        member_tr=member_tr,
        member_lg=member_lg,
        names=batch.names,
    )

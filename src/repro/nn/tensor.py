"""Row-deterministic array helpers shared by the model kernels.

Every model cell is a hand-written kernel pair on raw numpy arrays
(``kernel_forward`` / ``kernel_backward``); the two helpers here are what
those kernels need so that a row of a packed multi-circuit sweep never
depends on the batch height: a matmul that avoids height-dependent BLAS
kernels, and the contiguous-run layout of sorted segment ids that turns
segment reductions into ``reduceat`` calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowstable_matmul", "sorted_segment_layout"]


def sorted_segment_layout(
    segment_ids: np.ndarray, num_segments: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(nonempty segment ids, their start offsets) for ``reduceat``-style
    segment reductions, or ``None`` when ``segment_ids`` is not sorted.

    Levelized edge batches emit destinations in nondecreasing order, so the
    fast contiguous-run path applies throughout the GNN hot loop; arbitrary
    segment ids fall back to ``np.<op>.at``.
    """
    if segment_ids.size == 0 or not np.all(segment_ids[1:] >= segment_ids[:-1]):
        return None
    counts = np.bincount(segment_ids, minlength=num_segments)
    nonempty = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[nonempty]
    return nonempty, starts


def rowstable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with row-deterministic kernels.

    Row i of the product may not depend on the batch height, or the packed
    multi-circuit runtime could not reproduce sequential results bitwise.
    BLAS breaks that in two regimes — M==1 takes the gemv kernel, and
    narrow outputs (N<=3) take M-dependent kernels — so both are routed to
    stable computations (einsum's C loop accumulates each output element
    independently of the batch height).
    """
    if a.ndim == 2 and b.ndim == 2 and b.shape[1] <= 3:
        return np.einsum("ij,jc->ic", a, b)
    if a.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b

"""Shared-memory blocks for zero-copy transfer between processes.

The worker processes of :mod:`repro.runtime.workers` (the serving
gateway's model workers, the data-parallel trainer's ranks) exchange two
kinds of bulk numeric payload with their coordinator:

* **arena traffic** — per-request PI-probability vectors in, prediction
  arrays or float64 gradients out;
* **parameter blocks** — the model parameters in one dtype (the float32
  serving weights, the float64 training broadcast), identical in every
  worker, published once by the pool and mapped read-only by all of them.

Both ride named :class:`multiprocessing.shared_memory.SharedMemory`
segments wrapped in :class:`ShmBlock`, so the arrays cross the process
boundary as page mappings instead of pickled copies.  Blocks are arenas:
the owner writes arrays back-to-back with :func:`write_arrays` (64-byte
aligned, so views are cache-line friendly), ships the tiny
``(offset, size)`` layout through the control pipe, and the attached side
reconstructs views with :meth:`ShmBlock.ndarray`.  An arena is reused for
batch after batch — the owner only overwrites a region after the consumer
confirmed it is done with it — which keeps the steady state free of both
copies and segment churn.

Ownership rule: whoever *creates* a block unlinks it; attachers only
close.  The coordinator owns every segment, so a SIGKILLed worker can never
leak a ``/dev/shm`` entry — the kernel drops the dead worker's mapping
and the coordinator's close still unlinks the name.  As defense in depth,
:meth:`ShmBlock.create` registers every owner block with an atexit net
that best-effort unlinks whatever an explicit close path missed; this is
the sanctioned creation pattern reprolint's REP004 rule points at.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "ShmBlock",
    "arena_nbytes",
    "write_arrays",
    "stage_arrays",
    "collect_arrays",
    "publish_param_block",
    "attach_param_block",
]

#: Every segment this repo creates carries this name prefix, so tests (and
#: operators) can audit ``/dev/shm`` for leaks without false positives.
SHM_PREFIX = "repro-shm"

#: Array starts are rounded up to this many bytes inside an arena.
_ALIGN = 64

_COUNTER = itertools.count()

#: Owner blocks whose segment is still linked.  Weak references: the
#: normal unlink path removes entries eagerly, and a block the program
#: simply dropped must not be kept alive just to be tracked.
_LIVE_OWNERS: "weakref.WeakSet[ShmBlock]" = weakref.WeakSet()


def _unlink_leaked_owners() -> None:
    """atexit net: best-effort unlink of owner blocks never unlinked.

    Defense in depth behind the explicit-ownership rule (and behind
    reprolint's REP004): a crashed or sloppily-exited process must not
    leave ``/dev/shm/repro-shm*`` entries behind on a clean interpreter
    shutdown.  SIGKILL still leaks — only the kernel can help there.
    """
    for block in list(_LIVE_OWNERS):
        try:
            block.unlink()
        except Exception:  # pragma: no cover - shutdown best-effort
            pass


atexit.register(_unlink_leaked_owners)


class ShmBlock:
    """A named shared-memory segment plus ndarray views into it.

    Construct through :meth:`create` (owner side) or :meth:`attach`
    (consumer side).  The owner's :meth:`unlink` removes the name from the
    system; both sides :meth:`close` their mapping.
    """

    __slots__ = ("shm", "owner", "_unlinked", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.shm = shm
        self.owner = owner
        self._unlinked = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, nbytes: int, tag: str = "arena") -> "ShmBlock":
        """Allocate a fresh segment of at least ``nbytes`` bytes."""
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        name = f"{SHM_PREFIX}-{os.getpid()}-{next(_COUNTER)}-{tag}"
        block = cls(
            shared_memory.SharedMemory(name=name, create=True, size=int(nbytes)),
            owner=True,
        )
        _LIVE_OWNERS.add(block)
        return block

    @classmethod
    def attach(cls, name: str) -> "ShmBlock":
        """Map an existing segment by name (consumer side)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def size(self) -> int:
        return self.shm.size

    def ndarray(
        self, offset: int, shape: tuple[int, ...], dtype, writeable: bool = True
    ) -> np.ndarray:
        """A view of ``shape``/``dtype`` starting ``offset`` bytes in."""
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * dt.itemsize
        if offset < 0 or end > self.size:
            raise ValueError(
                f"view [{offset}, {end}) outside segment of {self.size} bytes"
            )
        arr = np.frombuffer(self.shm.buf, dtype=dt, count=count, offset=offset)
        arr = arr.reshape(shape)
        if not writeable:
            arr.flags.writeable = False
        return arr

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - live views still around
            pass

    def unlink(self) -> None:
        """Remove the name from the system (owner only; idempotent)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        _LIVE_OWNERS.discard(self)
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def arena_nbytes(arrays: list[np.ndarray]) -> int:
    """Bytes :func:`write_arrays` lays ``arrays`` out in, from offset 0."""
    return sum(_aligned(arr.nbytes) for arr in arrays)


def write_arrays(
    block: ShmBlock, arrays: list[np.ndarray], offset: int = 0
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Write ``arrays`` back-to-back into ``block``; returns their layout.

    Each entry of the returned layout is ``(byte_offset, shape)`` — with
    the dtype known to both sides, that is everything an attacher needs to
    rebuild views.  Returns ``None`` when the arrays do not fit, so
    callers can fall back to an inline (copied) transport instead of
    failing the request.
    """
    layout: list[tuple[int, tuple[int, ...]]] = []
    cursor = _aligned(offset)
    for arr in arrays:
        end = cursor + arr.nbytes
        if end > block.size:
            return None
        dest = block.ndarray(cursor, arr.shape, arr.dtype)
        dest[...] = arr
        layout.append((cursor, arr.shape))
        cursor = _aligned(end)
    return layout


def stage_arrays(
    block: ShmBlock, arrays: list[np.ndarray], offset: int = 0
) -> tuple[tuple, int]:
    """Producer half of a transfer: ``(meta, next_offset)`` for ``arrays``.

    ``meta`` is ``("shm", layout)`` when they fit into ``block`` at
    ``offset``, else ``("inline", arrays)`` — a pickled copy riding the
    control pipe; ``next_offset`` is the first free byte after them.
    """
    layout = write_arrays(block, arrays, offset)
    if layout is None:
        return ("inline", arrays), offset
    end = layout[-1][0] + arrays[-1].nbytes if layout else offset
    return ("shm", layout), end


def collect_arrays(block: ShmBlock, meta: tuple, dtype) -> list[np.ndarray]:
    """Consumer half: owned copies of the arrays a :func:`stage_arrays`
    ``meta`` names — the producer rewrites the region with its next
    message and the mapping dies with ``close()``."""
    if meta[0] == "inline":
        return list(meta[1])
    return [block.ndarray(off, shape, dtype).copy() for off, shape in meta[1]]


# ----------------------------------------------------------------------
# shared parameter blocks
# ----------------------------------------------------------------------

def publish_param_block(
    module, dtype=np.float32
) -> tuple[ShmBlock, list[tuple[int, tuple[int, ...]]]]:
    """Cast ``module``'s parameters to ``dtype`` inside one shared segment.

    Returns the owning block and the parameter layout (in
    ``module.parameters()`` order).  Every worker process maps the same
    physical pages read-only via :func:`attach_param_block`, so N workers
    share one copy of the serving-dtype weights instead of holding N.
    """
    params = [p.data.astype(dtype) for p in module.parameters()]
    block = ShmBlock.create(max(arena_nbytes(params), _ALIGN), tag="params")
    layout = write_arrays(block, params)
    assert layout is not None  # sized above
    return block, layout


def attach_param_block(
    name: str, layout: list[tuple[int, tuple[int, ...]]], dtype=np.float32
) -> tuple[ShmBlock, list[np.ndarray]]:
    """Map a published parameter block; returns read-only views.

    The caller keeps the returned :class:`ShmBlock` alive for as long as
    the views are in use (the views borrow its mapping).
    """
    block = ShmBlock.attach(name)
    views = [
        block.ndarray(off, shape, dtype, writeable=False)
        for off, shape in layout
    ]
    return block, views

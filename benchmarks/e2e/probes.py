"""Layer probes more than one workload's traced run uses."""

from __future__ import annotations

import numpy as np

from repro.runtime.shm import ShmBlock, write_arrays

from harness import Ops
from tracer import Tracer


def shm_round_trip(arrays: list[np.ndarray], tracer: Tracer, ops: Ops) -> int:
    """Write ``arrays`` into a fresh shared-memory block and copy them back
    (``runtime.shm_write`` / ``runtime.shm_read`` spans); returns the bytes."""
    nbytes = sum(a.nbytes for a in arrays)
    block = ShmBlock.create(nbytes + 64 * len(arrays), tag="bench")
    try:
        with tracer.span("runtime.shm_write"):
            layout = write_arrays(block, arrays)
        with tracer.span("runtime.shm_read"):
            back = [
                np.array(block.ndarray(off, shape, arr.dtype))
                for (off, shape), arr in zip(layout, arrays)
            ]
        ops.record(
            all(np.array_equal(a, b) for a, b in zip(arrays, back)),
            "shared-memory round trip changed an array",
        )
    finally:
        block.close()
        block.unlink()
    return nbytes

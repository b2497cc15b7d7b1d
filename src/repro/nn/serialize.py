"""Checkpoint (de)serialization for Module state dicts (npz on disk).

Two layers:

* :func:`save_state` / :func:`load_state` — bare parameter state dicts.
* :func:`dumps_state` / :func:`loads_state` / :func:`clone_module` — the
  same npz encoding through in-memory bytes; the serving layer stamps out
  per-worker model replicas with these, so worker replication exercises
  the exact on-disk format and replicas are float64-bitwise-identical.
* :func:`save_checkpoint` / :func:`load_checkpoint` — full *training*
  checkpoints in one ``.npz``: model parameters, optimizer slot state
  (Adam moments + step counter), the numpy ``Generator`` state driving
  epoch shuffles (plus per-shard worker streams under data-parallel
  training), the epoch index, and arbitrary extra arrays (loss
  history, early-stopping counters).  Everything a run needs to resume
  mid-schedule and land on bitwise-identical final parameters.
"""

from __future__ import annotations

import copy
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro.nn.module import Module

__all__ = [
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "dumps_state",
    "loads_state",
    "clone_module",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]


def save_state(state: dict[str, np.ndarray], path: str | Path) -> None:
    """Write a state dict to an ``.npz`` file (keys escaped for npz)."""
    np.savez(Path(path), **{k.replace(".", "__"): v for k, v in state.items()})


R = TypeVar("R")


def _read_npz(path: str | Path, read: Callable[[np.lib.npyio.NpzFile], R]) -> R:
    """``read`` over the npz file at ``path``.  A missing file raises as
    ``open`` does; a damaged one (truncated, bit-flipped, an array gone)
    raises one :class:`ValueError` naming the path, chained to the cause.

    Damage surfaces from zipfile, the npy header parser and ``read`` as
    ``BadZipFile``, ``EOFError``, ``ValueError``, ``KeyError``,
    ``NotImplementedError`` (a flipped compression method) and
    ``tokenize.TokenError`` among others, so everything raised while
    decoding the open file counts as damage.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                return read(data)
        except Exception as exc:
            raise ValueError(f"damaged checkpoint {path}: {exc!r}") from exc


def load_state(path: str | Path) -> dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state`."""
    return _read_npz(
        path, lambda data: {k.replace("__", "."): data[k].copy() for k in data.files}
    )


def dumps_state(state: dict[str, np.ndarray]) -> bytes:
    """Encode a state dict as npz bytes (same format as :func:`save_state`)."""
    buf = io.BytesIO()
    np.savez(buf, **{k.replace(".", "__"): v for k, v in state.items()})
    return buf.getvalue()


def loads_state(data: bytes) -> dict[str, np.ndarray]:
    """Decode npz bytes produced by :func:`dumps_state`."""
    with np.load(io.BytesIO(data)) as payload:
        return {k.replace("__", "."): payload[k].copy() for k in payload.files}


M = TypeVar("M", bound=Module)


def clone_module(module: M) -> M:
    """An independent replica of ``module`` with serialized-equal parameters.

    The structure is deep-copied; the parameters are then re-loaded through
    the npz byte round-trip, so a replica is exactly what a worker process
    restoring the module from disk would hold — float64 weights survive
    bitwise.  Mutating either copy (training, dtype casts) never touches the
    other.
    """
    replica = copy.deepcopy(module)
    replica.load_state_dict(loads_state(dumps_state(module.state_dict())))
    return replica


def save_module(module: Module, path: str | Path) -> None:
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str | Path) -> Module:
    module.load_state_dict(load_state(path))
    return module


# ----------------------------------------------------------------------
# full training checkpoints
# ----------------------------------------------------------------------

_MODEL_PREFIX = "model::"
_OPTIM_PREFIX = "optim::"
_EXTRA_PREFIX = "extra::"
_EPOCH_KEY = "meta::epoch"
_RNG_KEY = "meta::rng"


@dataclass
class Checkpoint:
    """A loaded training checkpoint.

    Attributes:
        epoch: index of the last *completed* epoch.
        model_state: parameter state dict (already applied when a model was
            passed to :func:`load_checkpoint`).
        optim_state: optimizer slot state (likewise applied when given).
        rng_state: numpy BitGenerator state dict, or ``None``.
        extra: any additional arrays stored alongside.
    """

    epoch: int
    model_state: dict[str, np.ndarray] = field(default_factory=dict)
    optim_state: dict[str, np.ndarray] = field(default_factory=dict)
    rng_state: dict | None = None
    extra: dict[str, np.ndarray] = field(default_factory=dict)

    def restore_rng(self, rng: np.random.Generator) -> None:
        """Overwrite ``rng``'s state with the checkpointed one."""
        if self.rng_state is None:
            raise ValueError("checkpoint holds no RNG state")
        rng.bit_generator.state = self.rng_state


def save_checkpoint(
    path: str | Path,
    model: Module,
    optimizer=None,
    *,
    epoch: int = 0,
    rng: np.random.Generator | None = None,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    """Write a resumable training checkpoint to one ``.npz`` file.

    ``optimizer`` may be any object exposing ``state_dict()`` (the
    :mod:`repro.nn.optim` optimizers do); ``rng`` is the generator whose
    epoch-shuffle state must survive the interruption.
    """
    payload: dict[str, np.ndarray] = {
        _MODEL_PREFIX + k: v for k, v in model.state_dict().items()
    }
    if optimizer is not None:
        payload.update(
            (_OPTIM_PREFIX + k, np.asarray(v))
            for k, v in optimizer.state_dict().items()
        )
    if rng is not None:
        # BitGenerator state contains >64-bit integers; JSON round-trips
        # them exactly where fixed-width arrays cannot.
        payload[_RNG_KEY] = np.asarray(json.dumps(rng.bit_generator.state))
    for k, v in (extra or {}).items():
        payload[_EXTRA_PREFIX + k] = np.asarray(v)
    payload[_EPOCH_KEY] = np.asarray(int(epoch), dtype=np.int64)
    # Write-then-rename, through a file handle: the handle keeps np.savez
    # from appending '.npz' to arbitrary user paths, and the atomic
    # os.replace means an interruption mid-save (the exact scenario
    # checkpointing exists for) can never destroy the previous good
    # checkpoint.  The temp file comes from mkstemp *in the target
    # directory* — a fixed ``<name>.tmp`` sibling let two concurrent
    # writers (data-parallel trainers, table drivers sharing a
    # checkpoint dir) clobber each other's half-written bytes before the
    # rename; mkstemp names are exclusive by construction, so the worst
    # concurrent outcome is last-rename-wins on a *complete* file.
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parse_checkpoint(data: np.lib.npyio.NpzFile) -> Checkpoint:
    ckpt = Checkpoint(epoch=int(data[_EPOCH_KEY]))
    for key in data.files:
        if key.startswith(_MODEL_PREFIX):
            ckpt.model_state[key[len(_MODEL_PREFIX):]] = data[key].copy()
        elif key.startswith(_OPTIM_PREFIX):
            ckpt.optim_state[key[len(_OPTIM_PREFIX):]] = data[key].copy()
        elif key.startswith(_EXTRA_PREFIX):
            ckpt.extra[key[len(_EXTRA_PREFIX):]] = data[key].copy()
        elif key == _RNG_KEY:
            ckpt.rng_state = json.loads(str(data[key]))
    return ckpt


def load_checkpoint(
    path: str | Path,
    model: Module | None = None,
    optimizer=None,
) -> Checkpoint:
    """Read a checkpoint; apply state to ``model``/``optimizer`` if given.

    A damaged file raises a :class:`ValueError` naming ``path``; applying
    the state raises as ``load_state_dict`` does.
    """
    ckpt = _read_npz(path, _parse_checkpoint)
    if model is not None:
        model.load_state_dict(ckpt.model_state)
    if optimizer is not None:
        optimizer.load_state_dict(ckpt.optim_state)
    return ckpt

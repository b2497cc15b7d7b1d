"""Content-addressed label cache for the data factory.

Every label the reproduction trains on is a pure function of
``(netlist structure, workload, SimConfig[, FaultConfig])`` — simulation is
deterministic.  The cache exploits that: label arrays are stored under a
SHA-256 digest of exactly those inputs, mirroring the fingerprint-keyed
plan/pack LRU design of :mod:`repro.runtime`.  Two tiers:

* an in-process LRU (always on) so one trainer run never re-simulates a
  (circuit, workload) pair it already labelled, and
* an optional on-disk tier (``cache_dir``) of one flat ``.lbl`` file per
  entry (:func:`encode_entry` / :func:`decode_entry`), so *repeated*
  trainer runs, benchmark regenerations and CI jobs skip simulation
  entirely.

Invalidation is structural: any change to the netlist wiring (via
:meth:`repro.circuit.netlist.Netlist.fingerprint`), the workload's PI
probabilities or seed, or any simulation/fault parameter produces a new
digest — stale entries are never *wrong*, only unreferenced.  Bump
``CACHE_VERSION`` when label *semantics* change (e.g. the PR-4 switch of
pattern seeding from ``SimConfig.seed`` to the workload's own seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sim.bitvec import words_for
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "LabelCache",
    "decode_entry",
    "encode_entry",
    "label_key",
]

#: Version tag mixed into every digest; bump when label semantics change.
CACHE_VERSION = "repro-data-v1"


def label_key(
    kind: str,
    fingerprint: str,
    workload: Workload,
    sim_config: SimConfig,
    fault_config: FaultConfig | None = None,
) -> str:
    """The content digest one labelling job is addressed by.

    Covers everything the label arrays depend on and nothing else: the
    workload's *name* is excluded (cosmetic), and ``streams`` is
    normalized to whole 64-bit words because the simulator rounds up —
    ``streams=60`` and ``streams=64`` run identical lanes.
    """
    h = hashlib.sha256()
    for part in (
        CACHE_VERSION,
        kind,
        fingerprint,
        str(int(workload.seed)),
        str(int(sim_config.cycles)),
        str(words_for(sim_config.streams) * 64),
        str(int(sim_config.warmup)),
        str(int(sim_config.seed)),
        sim_config.init_state,
    ):
        h.update(part.encode())
        h.update(b"|")
    h.update(np.ascontiguousarray(workload.pi_probs, dtype=np.float64).tobytes())
    if fault_config is not None:
        for part in (
            repr(float(fault_config.fault_rate)),
            str(int(fault_config.episode_cycles)),
            str(bool(fault_config.per_pattern)),
            str(int(fault_config.seed)),
        ):
            h.update(b"|")
            h.update(part.encode())
    return h.hexdigest()


#: Entry header: magic, format version, CRC-32 (``zlib.crc32``) of every
#: byte after the header, and the JSON manifest's length in bytes.
_HEADER = struct.Struct("<4sIII")
_MAGIC = b"RLBL"
_FORMAT = 1
_SUFFIX = ".lbl"
#: dtype kinds an entry may hold: bool, signed and unsigned int, float.
_KINDS = frozenset("biuf")


def _freeze(value: dict[str, np.ndarray]) -> None:
    for arr in value.values():
        arr.setflags(write=False)


def encode_entry(value: dict[str, np.ndarray]) -> bytes:
    """One disk entry: header, manifest, then each array's C-order bytes.

    The manifest is JSON ``[[name, dtype.str, shape], ...]`` in ``value``'s
    order.  Only numeric arrays (bool, int, uint, float) are storable.
    """
    arrays = [(name, np.asarray(arr)) for name, arr in value.items()]
    for name, arr in arrays:
        if arr.dtype.kind not in _KINDS:
            raise ValueError(f"label array {name!r} is not numeric: {arr.dtype}")
    manifest = json.dumps(
        [[name, arr.dtype.str, list(arr.shape)] for name, arr in arrays],
        separators=(",", ":"),
    ).encode()
    parts = [manifest, *(arr.tobytes() for _, arr in arrays)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([_HEADER.pack(_MAGIC, _FORMAT, crc, len(manifest)), *parts])


def decode_entry(data: bytes) -> dict[str, np.ndarray]:
    """The arrays :func:`encode_entry` wrote, as read-only copies.

    Raises :class:`ValueError` unless ``data`` is one whole, undamaged
    entry: magic, format and CRC-32 match, the manifest names distinct
    arrays of numeric dtype and non-negative dimensions, and those arrays
    exactly fill the payload.
    """
    if len(data) < _HEADER.size:
        raise ValueError("entry is shorter than its header")
    magic, version, crc, manifest_len = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _FORMAT:
        raise ValueError("not a label-cache entry of this format")
    body = memoryview(data)[_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise ValueError("entry CRC-32 mismatch")
    if manifest_len > len(body):
        raise ValueError("entry manifest runs past the file")
    try:
        manifest = json.loads(bytes(body[:manifest_len]))
    except RecursionError as exc:
        raise ValueError("entry manifest nests too deeply") from exc
    if not isinstance(manifest, list):
        raise ValueError("entry manifest is not a list")
    value: dict[str, np.ndarray] = {}
    offset = manifest_len
    for field in manifest:
        if not (isinstance(field, list) and len(field) == 3):
            raise ValueError("entry manifest field is not [name, dtype, shape]")
        name, dtype_str, shape = field
        if not isinstance(name, str) or name in value:
            raise ValueError("entry array names must be distinct strings")
        if not isinstance(dtype_str, str) or not isinstance(shape, list):
            raise ValueError(f"entry array {name!r} has a malformed dtype or shape")
        if not all(type(dim) is int and dim >= 0 for dim in shape):
            raise ValueError(f"entry array {name!r} has a dimension that is no count")
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise ValueError(f"entry array {name!r} has an unknown dtype") from exc
        if dtype.kind not in _KINDS:
            raise ValueError(f"entry array {name!r} is not numeric: {dtype_str}")
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > len(body) - offset:
            raise ValueError(f"entry array {name!r} runs past the payload")
        arr = np.frombuffer(body[offset : offset + nbytes], dtype=dtype)
        if dtype.kind == "b" and arr.view(np.uint8).max(initial=0) > 1:
            raise ValueError(f"entry array {name!r} holds a bool byte other than 0/1")
        value[name] = arr.reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise ValueError("entry has bytes past its last array")
    _freeze(value)
    return value


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one :class:`LabelCache` instance."""

    memory_hits: int
    disk_hits: int
    misses: int
    puts: int
    evictions: int

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class LabelCache:
    """Two-tier (memory LRU + optional disk) store of label-array dicts.

    Thread-safe; values are ``{name: ndarray}`` dicts treated as immutable
    by convention.  Disk entries live at ``<dir>/<key[:2]>/<key>.lbl``, one
    :func:`encode_entry` file each, and are written atomically (temp file +
    :func:`os.replace`), so concurrent writers — parallel CI jobs sharing
    one cache dir — at worst do redundant work, never corrupt an entry.
    """

    def __init__(
        self, cache_dir: str | Path | None = None, memory_entries: int = 512
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.memory_entries = int(memory_entries)
        self._memory: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}{_SUFFIX}"

    def _remember(self, key: str, value: dict[str, np.ndarray]) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._evictions += 1

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The cached arrays for ``key``, or ``None`` on a miss."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
                self._memory_hits += 1
                return value
        if self.cache_dir is not None:
            try:
                value = decode_entry(self._path(key).read_bytes())
            except (OSError, ValueError):
                # Absent, unreadable, foreign, truncated or damaged (CRC)
                # file: a miss; the following put() replaces it atomically.
                value = None
            if value is not None:
                with self._lock:
                    self._disk_hits += 1
                    self._remember(key, value)
                return value
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: str, value: dict[str, np.ndarray]) -> None:
        """Store ``value`` in memory and (when configured) on disk.

        Arrays are marked read-only: cache hits hand out the *same*
        ndarray to every consumer (factory-built sample targets alias
        them), so an accidental in-place edit must raise instead of
        silently corrupting every later hit for the digest.
        """
        _freeze(value)
        data = encode_entry(value) if self.cache_dir is not None else None
        with self._lock:
            self._puts += 1
            self._remember(key, value)
        if data is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries stay)."""
        with self._lock:
            self._memory.clear()

    def disk_entries(self) -> int:
        """Number of entries currently persisted on disk."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.glob(f"*/*{_SUFFIX}"))

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
            )

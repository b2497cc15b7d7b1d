"""Content-addressed label cache for the data factory.

Every label the reproduction trains on is a pure function of
``(netlist structure, workload, SimConfig[, FaultConfig])`` — simulation is
deterministic.  The cache exploits that: label arrays are stored under a
SHA-256 digest of exactly those inputs, mirroring the fingerprint-keyed
plan/pack LRU design of :mod:`repro.runtime`.  Two tiers:

* an in-process LRU (always on) so one trainer run never re-simulates a
  (circuit, workload) pair it already labelled, and
* an optional on-disk tier (``cache_dir``) of one ``.npz`` per entry, so
  *repeated* trainer runs, benchmark regenerations and CI jobs skip
  simulation entirely.

Invalidation is structural: any change to the netlist wiring (via
:meth:`repro.circuit.netlist.Netlist.fingerprint`), the workload's PI
probabilities or seed, or any simulation/fault parameter produces a new
digest — stale entries are never *wrong*, only unreferenced.  Bump
``CACHE_VERSION`` when label *semantics* change (e.g. the PR-4 switch of
pattern seeding from ``SimConfig.seed`` to the workload's own seed).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sim.bitvec import words_for
from repro.sim.faults import FaultConfig
from repro.sim.logicsim import SimConfig
from repro.sim.workload import Workload

__all__ = ["CACHE_VERSION", "CacheStats", "LabelCache", "label_key"]

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


def _freeze(value: dict[str, np.ndarray]) -> None:
    for arr in value.values():
        arr.setflags(write=False)


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
    by convention.  Disk entries live at ``<dir>/<key[:2]>/<key>.npz`` and
    are written atomically (temp file + :func:`os.replace`), so concurrent
    writers — parallel CI jobs sharing one cache dir — at worst do
    redundant work, never corrupt an entry.
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
        return self.cache_dir / key[:2] / f"{key}.npz"

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
            path = self._path(key)
            if path.exists():
                try:
                    with np.load(path) as npz:
                        value = {name: npz[name].copy() for name in npz.files}
                except (OSError, ValueError, EOFError, zipfile.BadZipFile):
                    # Foreign, empty, truncated or bit-flipped (CRC) file:
                    # a miss; the following put() replaces it atomically.
                    value = None
                if value is not None:
                    _freeze(value)
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
        with self._lock:
            self._puts += 1
            self._remember(key, value)
        if self.cache_dir is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **value)
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
        return sum(1 for _ in self.cache_dir.glob("*/*.npz"))

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

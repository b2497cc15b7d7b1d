"""Persisted datasets: npz shards plus a JSON manifest.

A dataset on disk is a directory of ``shard-NNNNN.npz`` files and one
``manifest.json``.  Each shard holds a fixed number of samples; per sample
the shard stores the *complete* reconstruction inputs — netlist structure
(gate-type codes, flat fanins, PO set), workload (PI probabilities +
seed) and the float64 label arrays — so a reader needs nothing but the
directory.  Node names are not persisted (labels and graph semantics
don't depend on them; reloaded netlists carry default ``n<i>`` names).

:class:`ShardReader` is a lazy ``Sequence[CircuitSample]``: it decodes one
shard at a time (keeping a tiny LRU of decoded shards) and plugs straight
into :class:`repro.train.trainer.Trainer` /
:func:`repro.runtime.trainstep.pack_samples`, so training on a large
persisted dataset never materializes every sample — let alone every
``SimResult`` — in memory at once.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.circuit.netlist import Netlist, Structure
from repro.sim.workload import Workload
from repro.train.dataset import CircuitSample

__all__ = [
    "MANIFEST_NAME", "ShardError", "write_shards", "load_manifest", "ShardReader",
]

MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1


class ShardError(ValueError):
    """A dataset file is missing, truncated or corrupt; names the file."""


#: What reading a damaged manifest, shard or shard member raises.
_UNREADABLE = (OSError, ValueError, EOFError, LookupError, zipfile.BadZipFile)


def _encode_netlist(nl: Netlist) -> dict[str, np.ndarray]:
    # The shard layout is the netlist's lowering; the int16 type codes
    # index GATE_TYPES, whose order is therefore frozen by existing shards.
    structure = nl.structure()
    return {
        "types": structure.type_code.astype(np.int16),
        "offsets": structure.fanin_ptr,
        "fanins": structure.fanin_idx,
        "pos": structure.pos,
    }


def _write_atomic(path: Path, write) -> None:
    """Write via a unique temp file + rename, so concurrent writers
    targeting one dataset directory can never publish each other's
    half-written bytes (mirrors :meth:`repro.data.cache.LabelCache.put`)."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_shards(
    samples: Sequence[CircuitSample],
    out_dir: str | Path,
    shard_size: int = 64,
    name: str = "dataset",
    kind: str = "sim",
    meta: dict | None = None,
) -> Path:
    """Persist ``samples`` as npz shards + manifest; returns the manifest path.

    ``kind`` records which labels ``target_tr`` carries (``"sim"`` =
    transition probabilities, ``"fault"`` = error probabilities); ``meta``
    is caller provenance (e.g. the SimConfig fields) stored verbatim.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shards: list[dict] = []
    for lo in range(0, len(samples), shard_size):
        members = samples[lo : lo + shard_size]
        fname = f"shard-{len(shards):05d}.npz"
        arrays: dict[str, np.ndarray] = {}
        entries: list[dict] = []
        for j, s in enumerate(members):
            arrays.update(
                {f"s{j}_{k}": v for k, v in _encode_netlist(s.graph.netlist).items()}
            )
            arrays[f"s{j}_probs"] = np.asarray(s.workload.pi_probs, dtype=np.float64)
            arrays[f"s{j}_tr"] = np.asarray(s.target_tr, dtype=np.float64)
            arrays[f"s{j}_lg"] = np.asarray(s.target_lg, dtype=np.float64)
            entries.append(
                {
                    "name": s.name,
                    "workload_name": s.workload.name,
                    "workload_seed": int(s.workload.seed),
                }
            )
        _write_atomic(out / fname, lambda fh: np.savez(fh, **arrays))
        shards.append({"file": fname, "count": len(members), "samples": entries})
    manifest = {
        "version": _FORMAT_VERSION,
        "name": name,
        "kind": kind,
        "num_samples": len(samples),
        "shard_size": int(shard_size),
        "shards": shards,
        "meta": meta or {},
    }
    path = out / MANIFEST_NAME
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode()
    _write_atomic(path, lambda fh: fh.write(payload))
    return path


def load_manifest(dataset_dir: str | Path) -> dict:
    """Parse and sanity-check a dataset directory's manifest."""
    path = Path(dataset_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except _UNREADABLE as exc:
        raise ShardError(f"unreadable dataset manifest {path}: {exc}") from exc
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {manifest.get('version')!r}"
        )
    return manifest


class ShardReader(Sequence):
    """Lazy ``Sequence[CircuitSample]`` over a sharded dataset directory.

    Decoding is *per sample*: an npz member is only decompressed when the
    sample it belongs to is accessed, so the trainer's shuffled indexing
    pays one sample's netlist rebuild per ``__getitem__`` — never a whole
    shard's.  At most ``cached_shards`` npz files stay open (LRU).
    Samples are rebuilt with empty ``extras`` — persisted datasets are
    lean by construction.
    """

    def __init__(self, dataset_dir: str | Path, cached_shards: int = 2) -> None:
        if cached_shards < 1:
            raise ValueError("cached_shards must be >= 1")
        self.dir = Path(dataset_dir)
        self.manifest = load_manifest(self.dir)
        self.cached_shards = int(cached_shards)
        self._index: list[tuple[int, int]] = []  # sample -> (shard, offset)
        for shard_no, shard in enumerate(self.manifest["shards"]):
            for j in range(shard["count"]):
                self._index.append((shard_no, j))
        self._handles: OrderedDict[int, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    def close(self) -> None:
        """Close every open shard file (the reader stays usable)."""
        while self._handles:
            _, npz = self._handles.popitem(last=False)
            npz.close()

    def _path(self, shard_no: int) -> Path:
        return self.dir / self.manifest["shards"][shard_no]["file"]

    def _npz(self, shard_no: int):
        npz = self._handles.get(shard_no)
        if npz is not None:
            self._handles.move_to_end(shard_no)
            return npz
        path = self._path(shard_no)
        try:
            # np.load(path) leaves its own handle open when the zip is
            # unreadable; opened here, the handle closes on that path too.
            fh = path.open("rb")
            try:
                npz = np.lib.npyio.NpzFile(fh, own_fid=True)
            except BaseException:
                fh.close()
                raise
        except _UNREADABLE as exc:
            raise ShardError(f"unreadable shard {path}: {exc}") from exc
        self._handles[shard_no] = npz
        while len(self._handles) > self.cached_shards:
            _, old = self._handles.popitem(last=False)
            old.close()
        return npz

    def _decode_sample(self, shard_no: int, j: int) -> CircuitSample:
        npz = self._npz(shard_no)
        try:
            entry = self.manifest["shards"][shard_no]["samples"][j]
            # The shard layout is the netlist's lowering (``_encode_netlist``).
            structure = Structure(
                npz[f"s{j}_types"].astype(np.int8), npz[f"s{j}_offsets"],
                npz[f"s{j}_fanins"], npz[f"s{j}_pos"],
            )
            probs, target_tr, target_lg = (
                npz[f"s{j}_{key}"] for key in ("probs", "tr", "lg")
            )
        except _UNREADABLE as exc:
            raise ShardError(
                f"sample {j} of shard {self._path(shard_no)} is missing or "
                f"corrupt: {exc}"
            ) from exc
        nl = Netlist.from_structure(structure, name=entry["name"])
        nl.validate()
        workload = Workload(
            probs, name=entry["workload_name"], seed=int(entry["workload_seed"])
        )
        return CircuitSample(
            graph=CircuitGraph(nl),
            workload=workload,
            target_tr=target_tr,
            target_lg=target_lg,
            name=entry["name"],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self._index):
            raise IndexError("sample index out of range")
        shard_no, offset = self._index[index]
        return self._decode_sample(shard_no, offset)

    def __iter__(self) -> Iterator[CircuitSample]:
        for shard_no, shard in enumerate(self.manifest["shards"]):
            for j in range(shard["count"]):
                yield self._decode_sample(shard_no, j)

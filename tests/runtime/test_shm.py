"""Shared-memory blocks and the explicit-start-method mp context.

These are the foundations the multi-process gateway stands on, tested in
isolation: byte-exact array round-trips through :class:`ShmBlock`, arena
layout/overflow semantics of :func:`write_arrays`, owner-unlink hygiene
against ``/dev/shm``, bitwise parameter-block publication, and the
fork-safety policy of :func:`resolve_mp_context`.
"""

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.runtime.mp import SAFE_METHODS, resolve_mp_context
from repro.runtime.shm import (
    SHM_PREFIX,
    ShmBlock,
    arena_nbytes,
    attach_param_block,
    collect_arrays,
    publish_param_block,
    stage_arrays,
    write_arrays,
)


def shm_entries():
    """Current /dev/shm segments created by this repo."""
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return {p.name for p in root.glob(f"{SHM_PREFIX}*")}


class TestShmBlock:
    def test_roundtrip_bitwise(self):
        block = ShmBlock.create(1 << 16)
        try:
            rng = np.random.default_rng(0)
            src = rng.standard_normal(512)
            view = block.ndarray(128, src.shape, np.float64)
            view[...] = src
            del view
            again = block.ndarray(128, src.shape, np.float64)
            np.testing.assert_array_equal(src, again)
            del again
        finally:
            block.close()
            block.unlink()

    def test_attach_sees_owner_writes(self):
        block = ShmBlock.create(4096)
        try:
            data = np.arange(64, dtype=np.float64)
            write_arrays(block, [data])
            other = ShmBlock.attach(block.name)
            view = other.ndarray(0, (64,), np.float64)
            np.testing.assert_array_equal(data, view)
            del view
            other.close()
        finally:
            block.close()
            block.unlink()

    def test_out_of_bounds_view_rejected(self):
        block = ShmBlock.create(1024)
        try:
            with pytest.raises(ValueError):
                block.ndarray(1020, (2,), np.float64)
            with pytest.raises(ValueError):
                block.ndarray(-8, (1,), np.float64)
        finally:
            block.close()
            block.unlink()

    def test_unlink_removes_dev_shm_entry(self):
        before = shm_entries()
        block = ShmBlock.create(4096, tag="probe")
        assert block.name in shm_entries()
        block.close()
        block.unlink()
        assert shm_entries() <= before

    def test_unlink_idempotent_and_attacher_never_unlinks(self):
        block = ShmBlock.create(4096)
        attacher = ShmBlock.attach(block.name)
        attacher.close()
        attacher.unlink()  # no-op: not the owner
        assert block.name in shm_entries()
        block.close()
        block.unlink()
        block.unlink()  # idempotent

    def test_atexit_net_unlinks_leaked_owner_blocks(self):
        from repro.runtime.shm import _LIVE_OWNERS, _unlink_leaked_owners

        block = ShmBlock.create(4096, tag="leak")
        assert block in _LIVE_OWNERS
        _unlink_leaked_owners()  # what interpreter shutdown would run
        assert block.name not in shm_entries()
        with pytest.raises(FileNotFoundError):
            ShmBlock.attach(block.name)
        block.close()
        block.unlink()  # still idempotent after the net fired

    def test_explicit_unlink_leaves_the_atexit_net(self):
        from repro.runtime.shm import _LIVE_OWNERS

        block = ShmBlock.create(4096, tag="owned")
        block.close()
        block.unlink()
        assert block not in _LIVE_OWNERS
        _unlink_leaked_owners_names = {b.name for b in _LIVE_OWNERS}
        assert block.name not in _unlink_leaked_owners_names

    def test_attached_blocks_never_enter_the_net(self):
        from repro.runtime.shm import _LIVE_OWNERS

        block = ShmBlock.create(4096, tag="net")
        attacher = ShmBlock.attach(block.name)
        assert attacher not in _LIVE_OWNERS
        attacher.close()
        block.close()
        block.unlink()


class TestWriteArrays:
    def test_layout_is_aligned_and_ordered(self):
        block = ShmBlock.create(1 << 12)
        try:
            arrays = [
                np.arange(5, dtype=np.float64),
                np.arange(9, dtype=np.float64) * 0.5,
                np.zeros(1),
            ]
            layout = write_arrays(block, arrays)
            assert layout is not None
            offsets = [off for off, _ in layout]
            assert offsets == sorted(offsets)
            for (off, shape), src in zip(layout, arrays):
                assert off % 64 == 0
                assert shape == src.shape
                np.testing.assert_array_equal(
                    src, block.ndarray(off, shape, np.float64)
                )
        finally:
            block.close()
            block.unlink()

    def test_overflow_returns_none_not_raise(self):
        block = ShmBlock.create(256)
        try:
            assert write_arrays(block, [np.zeros(1000)]) is None
            # A fitting write still works after the refused one.
            assert write_arrays(block, [np.zeros(8)]) is not None
        finally:
            block.close()
            block.unlink()

    def test_offset_continues_an_arena(self):
        block = ShmBlock.create(1 << 12)
        try:
            first = write_arrays(block, [np.ones(16)])
            (off0, _), = first
            second = write_arrays(block, [np.full(16, 2.0)], offset=off0 + 16 * 8)
            (off1, _), = second
            assert off1 > off0
            np.testing.assert_array_equal(
                np.ones(16), block.ndarray(off0, (16,), np.float64)
            )
        finally:
            block.close()
            block.unlink()


class TestStageCollect:
    """The reply shape both worker protocols use."""

    def test_staged_groups_chain_and_come_back_as_owned_copies(self):
        first = [np.arange(5.0), np.arange(12.0).reshape(3, 4)]
        second = [np.full(7, 2.5)]
        block = ShmBlock.create(arena_nbytes(first + second))
        try:
            meta1, cursor = stage_arrays(block, first)
            meta2, end = stage_arrays(block, second, cursor)
            assert meta1[0] == meta2[0] == "shm"
            assert cursor == meta1[1][-1][0] + first[-1].nbytes
            assert end <= block.size  # arena_nbytes sized it exactly
            back = collect_arrays(block, meta1, np.float64)
            back += collect_arrays(block, meta2, np.float64)
            for src, got in zip(first + second, back):
                np.testing.assert_array_equal(src, got)
                assert got.flags.owndata  # survives the arena's next write
            empty, same = stage_arrays(block, [], cursor)
            assert empty == ("shm", []) and same == cursor
        finally:
            block.close()
            block.unlink()

    def test_overflow_goes_inline_and_keeps_the_cursor(self):
        block = ShmBlock.create(256)
        try:
            arrays = [np.zeros(1000)]
            meta, cursor = stage_arrays(block, arrays, 64)
            assert meta[0] == "inline" and cursor == 64
            (got,) = collect_arrays(block, meta, np.float64)
            np.testing.assert_array_equal(arrays[0], got)
        finally:
            block.close()
            block.unlink()


class TestParamBlock:
    def test_float64_block_is_bitwise_and_rewritable_by_its_owner(self):
        """The DDP broadcast: owner-side views write, attached views read."""
        model = DeepSeq(ModelConfig(hidden=6, iterations=2, seed=3))
        block, layout = publish_param_block(model, np.float64)
        try:
            attached, views = attach_param_block(block.name, layout, np.float64)
            for view, p in zip(views, model.parameters()):
                assert np.array_equal(view, p.data)
            off, shape = layout[0]
            block.ndarray(off, shape, np.float64)[...] = 4.25
            assert np.all(views[0] == 4.25)
            del view, views
            attached.close()
        finally:
            block.close()
            block.unlink()

    def test_publish_attach_matches_astype(self):
        model = DeepSeq(ModelConfig(hidden=6, iterations=2, seed=3))
        block, layout = publish_param_block(model, np.float32)
        try:
            attached, views = attach_param_block(block.name, layout, np.float32)
            params = [p.data for p in model.parameters()]
            assert len(views) == len(params)
            for view, param in zip(views, params):
                np.testing.assert_array_equal(param.astype(np.float32), view)
                assert not view.flags.writeable
            del view, views
            attached.close()
        finally:
            block.close()
            block.unlink()


class TestMpContext:
    def test_default_context_is_never_fork(self):
        ctx = resolve_mp_context(None)
        assert ctx.get_start_method() in SAFE_METHODS

    def test_explicit_methods_honored(self):
        for method in ("forkserver", "spawn"):
            if method in multiprocessing.get_all_start_methods():
                assert resolve_mp_context(method).get_start_method() == method
        # Explicitly requesting fork is allowed (caller's choice)...
        if "fork" in multiprocessing.get_all_start_methods():
            assert resolve_mp_context("fork").get_start_method() == "fork"

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            resolve_mp_context("teleport")

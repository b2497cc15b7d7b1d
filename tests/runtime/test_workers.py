"""``WorkerPool``: the one spawn / handshake / shm-ownership / shutdown path.

Driven with a trivial echo handler, so what is under test is the
mechanism the gateway and the DDP executor share — not either protocol.
The failure tests pin the contract both callers rely on: every way a
spawn can fail raises the *caller's* typed error and leaves no child, no
pipe end and no ``/dev/shm`` entry behind.
"""

import ast
import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.runtime.ddp import DdpError, DdpGradExecutor
from repro.runtime.shm import SHM_PREFIX, collect_arrays
from repro.runtime.workers import WorkerPool

from tests.runtime._pool_handlers import (
    make_broken,
    make_echo,
    make_never_ready,
    state_digest,
)

MODEL = DeepSeq(ModelConfig(hidden=6, iterations=1, seed=3))
SRC = Path(__file__).resolve().parents[2] / "src"


class PoolError(RuntimeError):
    pass


def shm_entries():
    """This process's segments (the pid is in the name), so a concurrent
    test run on the same host cannot blur the audit."""
    return {p.name for p in Path("/dev/shm").glob(f"{SHM_PREFIX}-{os.getpid()}-*")}


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def live_children(prefix):
    return [
        p for p in multiprocessing.active_children() if p.name.startswith(prefix)
    ]


def make_pool(make_handler=make_echo, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("arena_bytes", {"out": 1 << 16})
    kwargs.setdefault("name", "test-pool")
    return WorkerPool(MODEL, make_handler, error=PoolError, **kwargs)


@pytest.fixture(scope="module", autouse=True)
def warm_process_machinery():
    """Start the forkserver and the shm resource tracker before any test
    counts descriptors: both keep a few open for the life of the process."""
    make_pool().stop()


pytestmark = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="needs /dev/shm and /proc"
)


class TestHandshake:
    def test_ready_replica_payload_and_param_block(self):
        before = shm_entries()
        pool = make_pool(workers=2, payload={"k": 7}, param_dtype=np.float32)
        try:
            assert len(shm_entries() - before) == 3  # 2 arenas + params
            pids = set()
            for i, handle in enumerate(pool.handles):
                assert handle.alive and handle.index == i
                handle.conn.send(("quiet",))  # a None reply sends nothing
                handle.conn.send(("echo", i))
                op, token, payload, pid, digest = handle.conn.recv()
                assert (op, token, payload) == ("echo", i, {"k": 7})
                assert pid == handle.proc.pid
                assert digest == state_digest(MODEL)  # npz round trip, bitwise
                pids.add(pid)
                handle.conn.send(("params",))
                views = collect_arrays(
                    handle.arenas["out"], handle.conn.recv()[1], np.float32
                )
                for view, p in zip(views, MODEL.parameters()):
                    assert np.array_equal(view, p.data.astype(np.float32))
            assert len(pids) == 2
        finally:
            assert pool.stop(timeout=30.0)
        assert shm_entries() == before
        assert not live_children("test-pool")

    def test_timeout_is_typed_and_reaps_the_child(self):
        before, fds = shm_entries(), open_fds()
        with pytest.raises(PoolError, match="never sent ready"):
            make_pool(make_never_ready, spawn_timeout=0.5)
        assert not live_children("test-pool")
        assert shm_entries() == before
        assert open_fds() == fds

    def test_handler_factory_failure_is_typed(self):
        before, fds = shm_entries(), open_fds()
        with pytest.raises(PoolError, match="died before sending ready"):
            make_pool(make_broken)
        assert not live_children("test-pool")
        assert shm_entries() == before
        assert open_fds() == fds

    def test_missing_arena_at_respawn_is_typed_and_leaks_nothing(self):
        """The early-death bug: ``poll()`` is true at EOF, so a child that
        died attaching a vanished arena used to surface as ``EOFError``."""
        before = shm_entries()
        pool = make_pool()
        try:
            handle = pool.handles[0]
            os.kill(handle.proc.pid, signal.SIGKILL)
            with pytest.raises(EOFError):
                handle.conn.recv()  # how a caller learns of the death
            pool.reap(handle)
            assert handle.conn is None and not handle.alive
            handle.arenas["out"].unlink()
            fds = open_fds()
            with pytest.raises(PoolError, match="died before sending ready"):
                pool.spawn(handle)
            assert handle.conn is None and not handle.alive
            assert not live_children("test-pool")
            assert open_fds() == fds
        finally:
            pool.stop(timeout=30.0)
        assert shm_entries() == before


class TestShutdown:
    def test_stop_is_idempotent_and_clean_after_sigkill(self):
        before = shm_entries()
        pool = make_pool(workers=2, param_dtype=np.float64)
        os.kill(pool.handles[0].proc.pid, signal.SIGKILL)
        assert pool.stop(timeout=30.0)
        assert pool.stop(timeout=30.0)
        assert shm_entries() == before
        assert not live_children("test-pool")
        assert all(h.conn is None for h in pool.handles)

    def test_spawn_after_stop_is_refused(self):
        pool = make_pool()
        pool.stop(timeout=30.0)
        with pytest.raises(PoolError, match="stopping"):
            pool.spawn(pool.handles[0])
        assert not live_children("test-pool")


class TestDdpEarlyDeath:
    def test_worker_dying_before_ready_raises_ddp_error(self):
        """An empty minibatch makes ``pack_samples`` raise in the child
        before its ack; the coordinator must see ``DdpError``."""
        before = shm_entries()
        with pytest.raises(DdpError, match="died before sending ready"):
            DdpGradExecutor(MODEL, [[]], workers=1)
        assert not live_children("train-ddp-worker")
        assert shm_entries() == before


def _attribute_calls(path, names):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ]


def test_process_and_pipe_are_created_in_one_module():
    """The fork this module closed cannot grow back unnoticed: raw worker
    processes and control pipes are made by ``runtime/workers.py`` only."""
    callers = {
        str(path.relative_to(SRC)): sorted(calls)
        for path in SRC.rglob("*.py")
        if (calls := _attribute_calls(path, {"Process", "Pipe"}))
    }
    assert callers == {"repro/runtime/workers.py": ["Pipe", "Process"]}

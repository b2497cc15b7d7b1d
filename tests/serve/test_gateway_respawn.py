"""Gateway crash policy when the *respawn* itself fails.

A worker that dies before its ``ready`` ack (here: its result arena has
vanished, so attaching raises in the child) reaches the parent as EOF on
the fresh pipe.  That used to escape ``spawn`` as a bare ``EOFError``,
kill the gateway's respawn task and leave the slot dead for good; it must
be a :class:`ServeError` the backoff loop retries.
"""

import os
import signal
import time
from types import SimpleNamespace

import numpy as np

from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.serve import Gateway, ServeError
from repro.serve.worker import RESULTS

from tests.conftest import build_pair

MODEL = DeepSeq(ModelConfig(hidden=12, iterations=2, seed=0))


def test_failed_respawn_backs_off_and_recovers():
    graph, workload = build_pair(seed=1, n_dffs=1, n_gates=18)
    expected = MODEL.predict(graph, workload)
    gw = Gateway(
        MODEL, workers=1, batch_size=2, max_latency_ms=2.0,
        restart_backoff_ms=10.0, restart_backoff_max_ms=40.0,
    )
    pool = gw.supervisor
    real_spawn, attempts = pool.spawn, []

    def flaky_spawn(handle, timeout=120.0):
        """First two respawns meet a missing result arena; later ones the
        real one."""
        arena = handle.arenas[RESULTS]
        if len(attempts) < 2:
            handle.arenas[RESULTS] = SimpleNamespace(name=arena.name + "-gone")
        try:
            real_spawn(handle, timeout)
            attempts.append(None)
        except BaseException as exc:
            attempts.append(exc)
            raise
        finally:
            handle.arenas[RESULTS] = arena

    pool.spawn = flaky_spawn
    try:
        with gw.connect() as client:
            np.testing.assert_array_equal(
                expected.tr, client.predict(graph.netlist, workload).tr
            )
            handle = pool.handles[0]
            pid = handle.proc.pid
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and len(attempts) < 3:
                time.sleep(0.02)
            assert [type(a) for a in attempts[:2]] == [ServeError, ServeError]
            assert attempts[2] is None
            assert handle.restarts == 3  # one death + two failed spawns
            res = client.predict(graph.netlist, workload, timeout=120)
            np.testing.assert_array_equal(expected.tr, res.tr)
            assert handle.alive and handle.proc.pid != pid
            assert handle.restarts == 0  # the served batch ended the loop
            assert gw.metrics.count("worker_deaths") == 1
            assert gw.metrics.count("restarts") == 1
    finally:
        gw.close()

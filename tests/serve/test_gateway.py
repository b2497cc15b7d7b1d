"""Multi-process gateway: correctness, faults, and resource hygiene.

The gateway's contract extends the threaded server's with process-level
failure modes, so these tests cover three axes:

* **equivalence** — float64 predictions served through the socket are
  bitwise-equal to sequential ``predict`` on the source model (the
  replica npz round-trip, the shared-memory feature path and the pickle
  response transport must all be exact);
* **faults** — a SIGKILLed worker fails its in-flight requests with the
  typed :class:`WorkerDied` (never a hang), is respawned, and the
  restarted slot serves again; responses are never cross-wired across
  the failure;
* **hygiene** — every ``repro-shm-*`` segment the gateway creates is gone
  from ``/dev/shm`` after close, including after worker kills.

Spawning worker processes costs real seconds, so the traffic tests share
one module-scoped gateway; lifecycle tests build their own.
"""

import json
import os
import pickle
import signal
import socket
import struct
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError
from repro.models.base import ModelConfig
from repro.models.deepseq import DeepSeq
from repro.runtime.shm import SHM_PREFIX, ShmBlock, stage_arrays
from repro.serve import (
    DeadlineExceeded,
    Gateway,
    QueueFull,
    ServeError,
    ServerClosed,
    WorkerDied,
    Server,
    transport,
)
from repro.serve.worker import FEATURES, RESULTS, make_handler
from repro.sim.workload import Workload

from tests.conftest import build_pair

MODEL = DeepSeq(ModelConfig(hidden=12, iterations=2, seed=0))


def shm_entries():
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.glob(f"{SHM_PREFIX}*")}


@pytest.fixture(scope="module")
def problem_set():
    """8 distinct (netlist, workload) pairs plus sequential expectations."""
    pairs = [
        build_pair(seed=s, n_dffs=s % 3, n_gates=16 + 3 * s) for s in range(8)
    ]
    expected = [MODEL.predict(g, w) for g, w in pairs]
    return [(g.netlist, w) for g, w in pairs], expected


@pytest.fixture(scope="module")
def gateway():
    gw = Gateway(
        MODEL,
        workers=2,
        batch_size=4,
        max_latency_ms=5.0,
        restart_backoff_ms=20.0,
        dtype="float64",
    )
    yield gw
    gw.close()


class TestBitwiseThroughSocket:
    def test_single_request_bitwise(self, gateway, problem_set):
        pairs, expected = problem_set
        with gateway.connect() as client:
            pred = client.predict(*pairs[0])
        np.testing.assert_array_equal(expected[0].tr, pred.tr)
        np.testing.assert_array_equal(expected[0].lg, pred.lg)

    def test_many_clients_no_crosswiring(self, gateway, problem_set):
        """Interleaved submissions from several connections: every result
        matches *its own* circuit's sequential prediction bitwise."""
        pairs, expected = problem_set
        clients = [gateway.connect() for _ in range(3)]
        try:
            futures = []
            for i in range(36):
                cid = i % len(clients)
                idx = (i * 5 + cid) % len(pairs)
                futures.append((idx, clients[cid].submit(*pairs[idx])))
            for idx, fut in futures:
                res = fut.result(timeout=120)
                np.testing.assert_array_equal(expected[idx].tr, res.tr)
                np.testing.assert_array_equal(expected[idx].lg, res.lg)
        finally:
            for c in clients:
                c.close()

    def test_predict_many_in_order(self, gateway, problem_set):
        pairs, expected = problem_set
        idxs = [3, 0, 5, 1, 3, 7]
        with gateway.connect() as client:
            results = client.predict_many(
                [pairs[i][0] for i in idxs], [pairs[i][1] for i in idxs]
            )
        for idx, res in zip(idxs, results):
            np.testing.assert_array_equal(expected[idx].tr, res.tr)


class TestProtocolSurface:
    def test_ping(self, gateway):
        with gateway.connect() as client:
            assert client.ping()

    def test_metrics_over_socket(self, gateway, problem_set):
        pairs, _ = problem_set
        with gateway.connect() as client:
            client.predict(*pairs[0])
            snap = client.metrics()
        assert snap["completed"] >= 1
        assert "e2e_ms" in snap and "worker_deaths" in snap

    def test_http_get_metrics(self, gateway, problem_set):
        pairs, _ = problem_set
        with gateway.connect() as client:
            client.predict(*pairs[1])
        url = "http://%s:%d/metrics" % gateway.address
        body = urllib.request.urlopen(url, timeout=30).read()
        snap = json.loads(body)
        assert snap["completed"] >= 1
        assert snap["submitted"] >= snap["completed"]

    def test_http_unknown_path_404(self, gateway):
        url = "http://%s:%d/nope" % gateway.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=30)
        err.value.close()  # the error holds the 404 response's socket
        assert err.value.code == 404

    def test_pi_mismatch_raises_client_side(self, gateway, problem_set):
        pairs, _ = problem_set
        (nl0, _), (_, wl1) = pairs[0], pairs[4]
        if len(nl0.pis) != wl1.num_pis:
            with pytest.raises(ValueError):
                gateway.connect().submit(nl0, wl1)

    def test_warm_acks_and_serves(self, gateway, problem_set):
        """warm() must round-trip the worker ack quickly (a missing ack
        burns the full warm timeout) and leave the gateway serving."""
        pairs, expected = problem_set
        t0 = time.monotonic()
        gateway.warm(pairs[2][0])
        assert time.monotonic() - t0 < 60.0
        with gateway.connect() as client:
            res = client.predict(*pairs[2])
        np.testing.assert_array_equal(expected[2].tr, res.tr)

    def test_deadline_exceeded_typed_through_socket(self, gateway, problem_set):
        pairs, _ = problem_set
        with gateway.connect() as client:
            fut = client.submit(*pairs[0], deadline_ms=0.0001)
            exc = fut.exception(timeout=60)
        assert exc is None or isinstance(exc, DeadlineExceeded)


def _non_aig() -> Netlist:
    nl = Netlist("one_or")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    nl.add_po(nl.add_gate(GateType.OR, [a, b], "g"))
    return nl


def _combinational_cycle() -> Netlist:
    nl = Netlist("loop")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    g = nl.add_gate(GateType.AND, [], "g")
    n = nl.add_gate(GateType.NOT, [g], "n")
    nl.set_fanins(g, [a, n])
    nl.add_po(nl.add_gate(GateType.AND, [n, b], "out"))
    return nl


def _stray_fanin() -> Netlist:
    nl = Netlist("stray")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    nl.add_po(nl.add_gate(GateType.AND, [a, b], "g"))
    nl.set_fanins(nl.add_gate(GateType.NOT, [], "n"), [99])
    return nl


BAD_NETLISTS = {
    "non_aig": (_non_aig, "AIG"),
    "cycle": (_combinational_cycle, "combinational cycle through nodes"),
    "stray_fanin": (_stray_fanin, "out-of-range fanin 99"),
}
TWO_PIS = Workload(np.array([0.5, 0.25]), "w")


@pytest.mark.parametrize("kind", sorted(BAD_NETLISTS))
class TestUncompilableNetlists:
    """A netlist no worker could compile is refused at admission with the
    exception the threaded server raises — it never reaches a worker."""

    def test_rejected_over_the_socket_worker_untouched(
        self, gateway, problem_set, kind
    ):
        pairs, expected = problem_set
        build, message = BAD_NETLISTS[kind]
        with gateway.connect() as client:
            client.predict(*pairs[0])  # every slot is up before we look
            before = gateway.metrics.count("worker_deaths")
            pids = [h.proc.pid for h in gateway.supervisor.handles]
            # A raw frame: what a client without local checks would send.
            future = client._request(
                ("predict", 10**9, build(), TWO_PIS, None, True), 10**9
            )
            with pytest.raises(NetlistError, match=message):
                future.result(timeout=60)
            with pytest.raises(NetlistError, match=message):
                client.predict(build(), TWO_PIS, timeout=60)
            res = client.predict(*pairs[3], timeout=120)
            snap = client.metrics()
        np.testing.assert_array_equal(expected[3].tr, res.tr)
        assert snap["worker_deaths"] == before
        assert [h.proc.pid for h in gateway.supervisor.handles] == pids

    def test_warm_refuses_it(self, gateway, kind):
        build, message = BAD_NETLISTS[kind]
        with pytest.raises(NetlistError, match=message):
            gateway.warm(build())

    def test_threaded_server_raises_the_same(self, kind):
        build, message = BAD_NETLISTS[kind]
        with Server(MODEL, workers=1, dtype="float64") as server:
            with pytest.raises(NetlistError, match=message):
                server.submit(build(), TWO_PIS)

    def test_worker_answers_a_structure_it_cannot_compile(self, problem_set, kind):
        """Behind admission, the handler still fails only the requests
        that name the bad structure."""
        pairs, expected = problem_set
        build, message = BAD_NETLISTS[kind]
        good, workload = pairs[0]
        arenas = {tag: ShmBlock.create(1 << 16) for tag in (FEATURES, RESULTS)}
        try:
            handle = make_handler(MODEL, None, arenas, "float64")
            assert handle(("structure", "bad", build())) is None
            assert handle(("structure", "good", good)) is None
            assert handle(("warm", "bad")) == ("warmed", "bad")
            features, _ = stage_arrays(
                arenas[FEATURES], [TWO_PIS.pi_probs, workload.pi_probs]
            )
            members = [("bad", "w", 0), ("good", workload.name, workload.seed)]
            _, batch_id, metas = handle(("batch", 7, features, members))
        finally:
            for block in arenas.values():
                block.close()
                block.unlink()
        assert batch_id == 7
        assert metas[0][0] == "err" and isinstance(metas[0][1], NetlistError)
        assert message in str(metas[0][1])
        assert metas[1][0] == "shm"


def _frame(payload: bytes) -> bytes:
    return struct.pack("!Q", len(payload)) + payload


#: A servable request, for frames that are malformed in one field only.
_GRAPH, _WORKLOAD = build_pair(seed=0, n_dffs=0, n_gates=16)
_NETLIST = _GRAPH.netlist


class TestMalformedFrames:
    """Bytes no GatewayClient would send must cost one connection at most:
    never an unhandled exception in the gateway's handler task."""

    @pytest.mark.parametrize(
        "raw, reply",
        [
            (_frame(b"this is not a pickle"), None),
            (_frame(pickle.dumps(7)), None),
            (_frame(pickle.dumps(("predict", 1))), ("error", 1)),
            (_frame(pickle.dumps(("predict", 2, "no netlist", None, None, True))),
             ("error", 2)),
            # A well-formed ping first, so the oversized prefix arrives as
            # a *later* frame of the connection.
            (_frame(pickle.dumps(("ping", 3))) + struct.pack("!Q", 1 << 60),
             ("pong", 3)),
            # Right shape, wrong field types: admitted, these would reach
            # the dispatcher (``workload.pi_probs``) and ``validate_request``.
            (_frame(pickle.dumps(
                ("predict", 6, _NETLIST, "not a workload", None, True))),
             ("error", 6)),
            (_frame(pickle.dumps(("predict", 5, _NETLIST, _WORKLOAD, "soon", True))),
             ("error", 5)),
            # The HTTP responder: no path, and a request line past the
            # StreamReader's 64 KiB limit.
            (b"GET \r\n", b"HTTP/1.1 400 Bad Request\r\n"),
            (b"GET /" + b"a" * (1 << 16) + b"\r\n", b"HTTP/1.1 400 Bad Request\r\n"),
        ],
        ids=["not-a-pickle", "non-tuple", "predict-arity", "predict-no-netlist",
             "oversized-later-frame", "predict-workload-type",
             "predict-deadline-type", "http-no-path", "http-long-request-line"],
    )
    def test_malformed_input_never_reaches_the_loop_handler(
        self, gateway, raw, reply
    ):
        seen: list[dict] = []
        loop = gateway._loop
        loop.call_soon_threadsafe(
            loop.set_exception_handler, lambda _loop, context: seen.append(context)
        )
        try:
            with socket.create_connection(gateway.address, timeout=30) as sock:
                sock.sendall(raw)
                if isinstance(reply, bytes):  # HTTP: the status line, then EOF
                    answer = b"".join(iter(lambda: sock.recv(4096), b""))
                    assert answer.startswith(reply)
                    reply = None
                elif reply is not None:
                    msg = transport.decode(transport.recv_frame(sock))
                    assert msg[:2] == reply
                if reply is not None and reply[0] == "error":
                    # A request the gateway could answer keeps its connection,
                    # and the dispatcher behind it keeps serving.
                    assert isinstance(msg[2], ServeError)
                    sock.sendall(_frame(pickle.dumps(("ping", 9))))
                    assert transport.decode(transport.recv_frame(sock)) == ("pong", 9)
                    sock.sendall(_frame(pickle.dumps(
                        ("predict", 10, _NETLIST, _WORKLOAD, None, True))))
                    op, req_id, tr, lg = transport.decode(transport.recv_frame(sock))
                    assert (op, req_id) == ("result", 10)
                    expected = MODEL.predict(_GRAPH, _WORKLOAD)
                    np.testing.assert_array_equal(expected.tr, tr)
                    np.testing.assert_array_equal(expected.lg, lg)
                else:
                    assert sock.recv(1) == b""  # hung up without a word
            with gateway.connect() as client:
                assert client.ping()
        finally:
            loop.call_soon_threadsafe(loop.set_exception_handler, None)
        assert seen == []

    def test_failed_dispatch_costs_its_batch_not_the_dispatcher(
        self, gateway, problem_set, monkeypatch
    ):
        """Anything raised while a batch is handed to a worker fails that
        batch typed and leaves both the worker and the dispatcher serving."""
        import repro.serve.gateway as gateway_mod

        pairs, expected = problem_set

        def staging_fails(block, arrays):
            monkeypatch.undo()  # the first batch only
            raise RuntimeError("staging failed")

        monkeypatch.setattr(gateway_mod, "stage_arrays", staging_fails)
        with gateway.connect() as client:
            with pytest.raises(ServeError, match="staging failed"):
                client.predict(*pairs[0], timeout=60)
            for idx in range(2 * len(gateway.supervisor.handles)):
                pred = client.predict(*pairs[idx], timeout=60)
                np.testing.assert_array_equal(expected[idx].tr, pred.tr)


class TestWorkerFaults:
    def test_sigkill_fails_typed_restarts_and_serves(self, gateway, problem_set):
        """SIGKILL one worker under load: every future resolves (typed
        WorkerDied or a bitwise-correct result — no hangs, no cross-wired
        responses), the slot respawns, and the gateway serves afterwards."""
        pairs, expected = problem_set
        deaths_before = gateway.metrics.count("worker_deaths")
        with gateway.connect() as client:
            client.predict(*pairs[0])  # ensure workers are warm
            victim = next(h for h in gateway.supervisor.handles if h.alive)
            victim_pid = victim.proc.pid
            futures = [
                (i % len(pairs), client.submit(*pairs[i % len(pairs)]))
                for i in range(24)
            ]
            os.kill(victim_pid, signal.SIGKILL)
            died = 0
            for idx, fut in futures:
                try:
                    res = fut.result(timeout=120)
                    np.testing.assert_array_equal(expected[idx].tr, res.tr)
                except WorkerDied:
                    died += 1
            assert gateway.metrics.count("worker_deaths") == deaths_before + 1
            # The dead slot must come back and the gateway must keep
            # serving correct results afterwards.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if victim.alive and victim.proc.pid != victim_pid:
                    break
                time.sleep(0.05)
            assert victim.alive and victim.proc.pid != victim_pid
            for i in range(8):
                idx = i % len(pairs)
                res = client.predict(*pairs[idx], timeout=120)
                np.testing.assert_array_equal(expected[idx].tr, res.tr)

    def test_warm_fails_typed_when_the_worker_dies(self, problem_set):
        """A worker killed before it acknowledges a warm fails ``warm``
        with WorkerDied at once, not after the 300 s ack timeout."""
        pairs, _ = problem_set
        gw = Gateway(MODEL, workers=1, restart_backoff_ms=10.0)
        errors: list = []

        def warm():
            try:
                gw.warm(pairs[5][0])
            except Exception as exc:
                errors.append(exc)

        try:
            slot = gw.supervisor.handles[0]
            pid = slot.proc.pid
            os.kill(pid, signal.SIGSTOP)
            warmer = threading.Thread(target=warm)
            warmer.start()
            wait_until(lambda: slot.warm_future is not None)
            time.sleep(0.2)  # the warm message is in the stopped worker's pipe
            os.kill(pid, signal.SIGKILL)
            warmer.join(timeout=10)
            assert not warmer.is_alive()
            assert len(errors) == 1 and isinstance(errors[0], WorkerDied), errors
        finally:
            gw.close()

    def test_no_shm_leak_across_kills(self, problem_set):
        """Worker kills never leak /dev/shm entries: arenas are
        gateway-owned and unlinked exactly once at close."""
        pairs, _ = problem_set
        before = shm_entries()
        gw = Gateway(
            MODEL, workers=1, batch_size=2, max_latency_ms=2.0,
            restart_backoff_ms=10.0,
        )
        try:
            with gw.connect() as client:
                client.predict(*pairs[0])
                pid = gw.supervisor.handles[0].proc.pid
                os.kill(pid, signal.SIGKILL)
                # Wait for the respawn, then serve again.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    h = gw.supervisor.handles[0]
                    if h.alive and h.proc.pid != pid:
                        break
                    time.sleep(0.05)
                client.predict(*pairs[1], timeout=120)
        finally:
            gw.close()
        assert shm_entries() <= before


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


@contextmanager
def stopped(gw):
    """SIGSTOP every worker process of ``gw``; SIGCONT them on exit.

    An idle gateway dispatches a request at once, so requests stay queued
    only while a batch is in flight.  A batch sent to a stopped worker
    stays in flight, which holds the queue behind it on purpose.
    """
    pids = [handle.proc.pid for handle in gw.supervisor.handles]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)


def send_one_in_flight(gw, client, pair):
    """Submit ``pair`` and wait until a (stopped) worker holds it."""
    before = gw.metrics.count("submitted")
    future = client.submit(*pair)
    wait_until(lambda: gw.metrics.count("submitted") == before + 1 and gw.pending == 0)
    return future


class TestAdmission:
    def test_nonblocking_submit_rejects_when_full(self, problem_set):
        pairs, _ = problem_set
        gw = Gateway(
            MODEL, workers=1, batch_size=4, max_latency_ms=1_000.0,
            max_pending=4,
        )
        try:
            with gw.connect() as client:
                with stopped(gw):
                    # One request in flight on the stopped worker, 4 fill
                    # the queue behind it: a non-blocking submission must
                    # bounce with QueueFull.
                    futures = [send_one_in_flight(gw, client, pairs[0])]
                    futures += [client.submit(*pairs[0]) for _ in range(4)]
                    wait_until(lambda: gw.pending == 4)
                    bounced = client.submit(*pairs[0], block=False)
                    assert isinstance(bounced.exception(timeout=60), QueueFull)
                    assert gw.metrics.count("rejected") == 1
                outcomes = [fut.exception(timeout=120) for fut in futures]
                assert outcomes == [None] * 5
        finally:
            gw.close()


class TestGatewayShutdown:
    def test_close_drains_pending(self, problem_set):
        pairs, expected = problem_set
        gw = Gateway(MODEL, workers=2, batch_size=4, max_latency_ms=1_000.0)
        client = gw.connect()
        closer = threading.Thread(target=gw.close, kwargs={"drain": True})
        with stopped(gw):
            futures = [(0, send_one_in_flight(gw, client, pairs[0]))]
            futures += [
                (i % len(pairs), client.submit(*pairs[i % len(pairs)]))
                for i in range(1, 6)
            ]
            # A full batch goes to the second stopped worker; the one left
            # queues behind a flush deadline far away.
            wait_until(
                lambda: gw.metrics.count("submitted") == 6 and gw.pending == 1
            )
            closer.start()
            wait_until(lambda: gw._batcher.closing)
        closer.join(timeout=120)  # close must flush the queued request
        assert not closer.is_alive()
        for idx, fut in futures:
            np.testing.assert_array_equal(
                expected[idx].tr, fut.result(timeout=60).tr
            )
        assert gw.closed
        client.close()

    def test_close_without_drain_fails_pending(self, problem_set):
        pairs, _ = problem_set
        gw = Gateway(
            MODEL, workers=1, batch_size=64, max_latency_ms=10_000.0,
            max_pending=64,
        )
        client = gw.connect()
        closer = threading.Thread(target=gw.close, kwargs={"drain": False})
        with stopped(gw):
            futures = [send_one_in_flight(gw, client, pairs[0])]
            futures += [client.submit(*pairs[i % len(pairs)]) for i in range(1, 10)]
            wait_until(lambda: gw.pending == 9)
            closer.start()
            wait_until(lambda: gw._batcher.closing)
        closer.join(timeout=120)
        assert not closer.is_alive()
        resolved = [f.exception(timeout=60) for f in futures]
        assert all(
            exc is None or isinstance(exc, (ServerClosed, WorkerDied))
            for exc in resolved
        )
        # Everything queued behind the in-flight batch failed.
        assert all(isinstance(exc, ServerClosed) for exc in resolved[1:]), resolved
        client.close()

    def test_submit_after_close_fails_cleanly(self, problem_set):
        pairs, _ = problem_set
        gw = Gateway(MODEL, workers=1)
        client = gw.connect()
        gw.close()
        with pytest.raises(ServerClosed):
            client.submit(*pairs[0]).result(timeout=60)
        client.close()

    def test_close_idempotent(self):
        gw = Gateway(MODEL, workers=1)
        gw.close()
        gw.close()
        assert gw.closed

    def test_close_unlinks_all_segments(self):
        before = shm_entries()
        gw = Gateway(MODEL, workers=2, dtype="float32")  # + param block
        created = shm_entries() - before
        assert len(created) == 5  # 2 workers x 2 arenas + shared params
        gw.close()
        assert shm_entries() <= before


class TestFloat32SharedShadow:
    def test_float32_serving_within_tolerance(self, problem_set):
        pairs, expected = problem_set
        gw = Gateway(MODEL, workers=2, batch_size=4, dtype="float32")
        try:
            with gw.connect() as client:
                for idx in (0, 3, 6):
                    res = client.predict(*pairs[idx], timeout=120)
                    assert res.tr.dtype == np.float32
                    assert np.abs(expected[idx].tr - res.tr).max() <= 1e-4
                    assert np.abs(expected[idx].lg - res.lg).max() <= 1e-4
        finally:
            gw.close()

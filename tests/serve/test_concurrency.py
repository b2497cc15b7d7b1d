"""Concurrency stress tests for the serving front-end.

Many submitter threads hammer one server; the assertions are the queue
invariants: no request is lost (every future resolves), none is
duplicated or cross-wired (each result is bitwise-equal to *its own*
circuit's sequential prediction — distinct workloads make any swap
visible), the admission bound holds, and the metric counters reconcile
with what the clients observed.
"""

import threading
import time

import numpy as np
import pytest

from repro.models.base import ModelConfig, window_rows
from repro.models.deepseq import DeepSeq
from repro.runtime.pack import clear_pack_cache, pack_cache_info, pack_graphs
from repro.runtime.plan import clear_plan_cache
from repro.serve import (
    DeadlineExceeded,
    QueueFull,
    ServeError,
    Server,
    ServerClosed,
)

from tests.conftest import build_pair

MODEL = DeepSeq(ModelConfig(hidden=12, iterations=2, seed=0))


@pytest.fixture(scope="module")
def problem_set():
    """12 distinct (graph, workload) pairs plus sequential expectations."""
    pairs = [
        build_pair(seed=s, n_dffs=s % 4, n_gates=18 + 3 * s) for s in range(12)
    ]
    expected = [MODEL.predict(g, w) for g, w in pairs]
    return pairs, expected


class StuckSweeps:
    """Every packed sweep blocks until :meth:`release`.

    An idle server dispatches a request at once, so requests stay queued
    only while a batch is in flight; tests that need a queue hold one
    there on purpose with this.
    """

    def __init__(self, monkeypatch) -> None:
        import repro.serve.server as server_mod

        real = server_mod.run_packed_isolated
        self._gate = threading.Event()
        self._entered: list[int] = []
        lock = threading.Lock()

        def stuck(replica, graphs, workloads, dtype):
            with lock:
                self._entered.append(len(graphs))
            self._gate.wait(timeout=120)
            return real(replica, graphs, workloads, dtype=dtype)

        monkeypatch.setattr(server_mod, "run_packed_isolated", stuck)

    def wait_entered(self, sweeps: int) -> None:
        """Block until ``sweeps`` batches are mid-sweep."""
        deadline = time.monotonic() + 30
        while len(self._entered) < sweeps and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(self._entered) >= sweeps

    def release(self) -> None:
        self._gate.set()


@pytest.fixture
def stuck_sweeps(monkeypatch):
    sweeps = StuckSweeps(monkeypatch)
    yield sweeps
    sweeps.release()  # never leave a worker thread parked


def close_while_stuck(srv, sweeps: StuckSweeps, drain: bool) -> None:
    """Begin ``srv.close(drain)`` while its sweeps are held, then release
    them: whatever close does to the queue happens with a batch still in
    flight."""
    closer = threading.Thread(target=srv.close, kwargs={"drain": drain})
    closer.start()
    deadline = time.monotonic() + 30
    while not srv._closing and time.monotonic() < deadline:
        time.sleep(0.005)
    assert srv._closing
    sweeps.release()
    closer.join(timeout=60)
    assert not closer.is_alive()


def hammer(server, pairs, n_threads, per_thread):
    """Concurrent closed-loop clients; returns (pair_idx, result) lists."""
    outcomes: list[list] = [[] for _ in range(n_threads)]
    errors: list[Exception] = []

    def client(cid):
        try:
            for i in range(per_thread):
                idx = (cid * 7 + i * 3) % len(pairs)
                future = server.submit(*pairs[idx])
                outcomes[cid].append((idx, future.result(timeout=60)))
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return [item for per_client in outcomes for item in per_client]


class TestManySubmitters:
    def test_no_lost_or_crosswired_requests(self, problem_set):
        pairs, expected = problem_set
        n_threads, per_thread = 6, 10
        with Server(
            MODEL, workers=3, batch_size=4, max_latency_ms=5, dtype="float64"
        ) as srv:
            outcomes = hammer(srv, pairs, n_threads, per_thread)
            srv.drain(timeout=30)
            snap = srv.metrics.snapshot()
        assert len(outcomes) == n_threads * per_thread
        for idx, result in outcomes:
            np.testing.assert_array_equal(expected[idx].tr, result.tr)
            np.testing.assert_array_equal(expected[idx].lg, result.lg)
        assert snap["submitted"] == n_threads * per_thread
        assert snap["completed"] == n_threads * per_thread
        assert snap["failed"] == snap["expired"] == snap["rejected"] == 0
        assert snap["batched_circuits"] == n_threads * per_thread
        assert snap["e2e_ms"]["count"] == n_threads * per_thread

    def test_admission_bound_holds_under_pressure(self, problem_set):
        pairs, _ = problem_set
        max_pending = 8
        with Server(
            MODEL,
            workers=1,
            batch_size=4,
            max_latency_ms=5,
            max_pending=max_pending,
            dtype="float64",
        ) as srv:
            observed = []

            def client(cid):
                for i in range(12):
                    srv.submit(*pairs[(cid + i) % len(pairs)])
                    observed.append(srv.pending)

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            srv.drain(timeout=60)
        assert max(observed) <= max_pending

    def test_nonblocking_submit_rejects_when_full(self, problem_set, stuck_sweeps):
        pairs, _ = problem_set
        srv = Server(
            MODEL,
            workers=1,
            batch_size=4,
            max_latency_ms=10_000,
            max_pending=4,
            dtype="float64",
        )
        try:
            futures = [srv.submit(*pairs[0])]
            # The one worker is mid-sweep: nothing more is claimed, so the
            # queue genuinely fills and the next non-blocking submit bounces.
            stuck_sweeps.wait_entered(1)
            futures += [srv.submit(*pairs[0], block=True) for _ in range(4)]
            assert srv.pending == 4
            with pytest.raises(QueueFull):
                srv.submit(*pairs[0], block=False)
            assert srv.metrics.count("rejected") == 1
        finally:
            stuck_sweeps.release()
            srv.close()
        for f in futures:
            f.result(timeout=60)


class TestDeadlines:
    def test_expired_requests_fail_not_hang(self, problem_set):
        pairs, expected = problem_set
        with Server(
            MODEL,
            workers=1,
            batch_size=2,
            max_latency_ms=1,
            deadline_ms=0.01,  # expires before any batch can start
            dtype="float64",
        ) as srv:
            futures = [srv.submit(*pairs[i % 4]) for i in range(8)]
            time.sleep(0.05)
            outcomes = [f.exception(timeout=30) for f in futures]
        # Every future resolved; any that ran matched its deadline budget.
        assert all(
            exc is None or isinstance(exc, DeadlineExceeded) for exc in outcomes
        )
        assert any(isinstance(exc, DeadlineExceeded) for exc in outcomes)
        snap = srv.metrics.snapshot()
        assert snap["expired"] + snap["completed"] == 8

    def test_per_request_deadline_overrides_config(self, problem_set):
        pairs, expected = problem_set
        with Server(
            MODEL, workers=1, batch_size=4, max_latency_ms=5, dtype="float64"
        ) as srv:
            relaxed = srv.submit(*pairs[0])  # no deadline
            result = relaxed.result(timeout=30)
        np.testing.assert_array_equal(expected[0].tr, result.tr)


class TestShutdown:
    def test_close_drains_pending(self, problem_set, stuck_sweeps):
        pairs, expected = problem_set
        srv = Server(
            MODEL, workers=2, batch_size=4, max_latency_ms=1_000,
            max_concurrent_sweeps=2, dtype="float64",
        )
        futures = [srv.submit(*pairs[0])]
        stuck_sweeps.wait_entered(1)
        # With a batch in flight the second worker claims full batches
        # only; the rest queue behind a flush deadline far away.
        futures += [srv.submit(*pairs[i % len(pairs)]) for i in range(1, 10)]
        assert srv.pending > 0
        close_while_stuck(srv, stuck_sweeps, drain=True)  # close must flush
        for i, f in enumerate(futures):
            np.testing.assert_array_equal(
                expected[i % len(pairs)].tr, f.result(timeout=1).tr
            )
        assert srv.closed

    def test_close_without_drain_fails_pending(self, problem_set, stuck_sweeps):
        pairs, expected = problem_set
        srv = Server(
            MODEL, workers=1, batch_size=64, max_latency_ms=10_000,
            max_pending=64, dtype="float64",
        )
        futures = [srv.submit(*pairs[0])]
        stuck_sweeps.wait_entered(1)
        futures += [srv.submit(*pairs[i % len(pairs)]) for i in range(1, 10)]
        close_while_stuck(srv, stuck_sweeps, drain=False)
        # The claimed batch completes; everything still queued fails.
        np.testing.assert_array_equal(expected[0].tr, futures[0].result(timeout=5).tr)
        resolved = [f.exception(timeout=5) for f in futures[1:]]
        assert all(isinstance(exc, ServerClosed) for exc in resolved), resolved

    def test_submit_after_close_raises(self, problem_set):
        pairs, _ = problem_set
        srv = Server(MODEL, workers=1, dtype="float64")
        srv.close()
        with pytest.raises(ServerClosed):
            srv.submit(*pairs[0])

    def test_close_idempotent_and_concurrent(self, problem_set):
        pairs, _ = problem_set
        srv = Server(MODEL, workers=2, dtype="float64")
        srv.submit(*pairs[0])
        threads = [threading.Thread(target=srv.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        srv.close()
        assert srv.closed

    def test_submitters_racing_shutdown_never_hang(self, problem_set):
        """Clients submitting while another thread closes the server either
        get served or get a clean ServeError — never a hang."""
        pairs, _ = problem_set
        srv = Server(
            MODEL, workers=2, batch_size=2, max_latency_ms=5, dtype="float64"
        )
        stop_errors: list[Exception] = []

        def client(cid):
            for i in range(20):
                try:
                    srv.submit(*pairs[(cid + i) % len(pairs)]).result(timeout=30)
                except ServeError:
                    return
                except Exception as exc:
                    stop_errors.append(exc)
                    return

        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.2)
        srv.close()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not stop_errors, stop_errors


class TestShutdownTimeouts:
    """The close-path bugfixes: one shared deadline across K worker joins,
    and a no-drain close winning over an in-progress draining close."""

    def _stuck_server(self, stuck_sweeps, pairs, workers):
        """A server with every worker mid-sweep on a held batch; returns
        (server, futures)."""
        srv = Server(
            MODEL, workers=workers, batch_size=1, max_latency_ms=1,
            max_concurrent_sweeps=workers,  # let every worker get stuck
            dtype="float64",
        )
        futures = [srv.submit(*pairs[i]) for i in range(workers)]
        stuck_sweeps.wait_entered(workers)
        return srv, futures

    def test_close_timeout_shared_across_workers(self, stuck_sweeps, problem_set):
        """``close(timeout=t)`` with K stuck workers returns in ~t, not
        K*t: the joins share one deadline.  A timed-out close reports
        ``closed=False`` instead of pretending shutdown finished."""
        pairs, expected = problem_set
        workers = 3
        srv, futures = self._stuck_server(stuck_sweeps, pairs, workers)
        try:
            t0 = time.monotonic()
            srv.close(timeout=0.5)
            elapsed = time.monotonic() - t0
            # Per-worker deadlines would take >= workers * 0.5 = 1.5 s.
            assert elapsed < 1.2, f"close took {elapsed:.2f}s for {workers} joins"
            assert srv.closed is False
        finally:
            stuck_sweeps.release()
        for i, fut in enumerate(futures):
            np.testing.assert_array_equal(
                expected[i].tr, fut.result(timeout=60).tr
            )
        srv.close()  # workers unblocked: now shutdown completes
        assert srv.closed

    def test_nodrain_close_wins_over_inflight_drain(self, stuck_sweeps, problem_set):
        """``close(drain=False)`` racing an in-progress ``close(drain=True)``
        fails what is still queued with ServerClosed instead of letting the
        drain keep serving it."""
        pairs, expected = problem_set
        srv, inflight = self._stuck_server(stuck_sweeps, pairs, 1)
        queued = [srv.submit(*pairs[1 + i]) for i in range(4)]
        drainer = threading.Thread(target=srv.close, kwargs={"drain": True})
        drainer.start()
        deadline = time.monotonic() + 30
        while not srv._closing and time.monotonic() < deadline:
            time.sleep(0.005)
        # The draining close is now blocked joining the stuck worker.
        srv.close(drain=False, timeout=0.2)
        outcomes = [f.exception(timeout=5) for f in queued]
        assert all(isinstance(exc, ServerClosed) for exc in outcomes), outcomes
        stuck_sweeps.release()
        drainer.join(timeout=60)
        assert not drainer.is_alive()
        # The batch the worker had already claimed still completes.
        np.testing.assert_array_equal(
            expected[0].tr, inflight[0].result(timeout=60).tr
        )
        assert srv.closed


class TestGatewayConcurrency:
    """The multi-process front door under the same hammer: concurrent
    clients across several connections, no lost/cross-wired requests."""

    def test_many_clients_many_threads_bitwise(self, problem_set):
        from repro.serve import Gateway

        pairs, expected = problem_set
        netlisted = [(g.netlist, w) for g, w in pairs]
        gw = Gateway(
            MODEL, workers=2, batch_size=4, max_latency_ms=5.0,
            dtype="float64",
        )
        try:
            clients = [gw.connect() for _ in range(3)]
            outcomes: list[list] = [[] for _ in range(6)]
            errors: list[Exception] = []

            def client(cid):
                conn = clients[cid % len(clients)]
                try:
                    for i in range(8):
                        idx = (cid * 7 + i * 3) % len(netlisted)
                        fut = conn.submit(*netlisted[idx])
                        outcomes[cid].append((idx, fut.result(timeout=120)))
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            flat = [item for per in outcomes for item in per]
            assert len(flat) == 6 * 8
            for idx, result in flat:
                np.testing.assert_array_equal(expected[idx].tr, result.tr)
                np.testing.assert_array_equal(expected[idx].lg, result.lg)
            snap = gw.metrics.snapshot()
            assert snap["completed"] >= 6 * 8
            assert snap["worker_deaths"] == 0
            for c in clients:
                c.close()
        finally:
            gw.close()


class TestWarm:
    """``Server.warm`` compiles each circuit's own plan once, so the first
    lone request over it runs straight from the caches."""

    def test_warm_compiles_one_plan_per_circuit(self, problem_set):
        pairs, expected = problem_set
        clear_pack_cache()
        with Server(
            MODEL, workers=1, batch_size=4, max_latency_ms=5, dtype="float64"
        ) as srv:
            for graph, _ in pairs[:3]:
                srv.warm(graph)
            warmed = pack_cache_info()
            assert (warmed.size, warmed.misses) == (3, 3)
            for idx in range(3):
                res = srv.predict(*pairs[idx])
                np.testing.assert_array_equal(expected[idx].tr, res.tr)
            served = pack_cache_info()
        assert served.misses == warmed.misses
        assert served.hits == warmed.hits + 3

    def test_warm_from_a_netlist_caches_rows_at_the_serving_dtype(
        self, problem_set
    ):
        pairs, _ = problem_set
        graph = pairs[4][0]
        clear_pack_cache()
        clear_plan_cache()  # drop what an earlier sweep cached at float64
        with Server(MODEL, workers=1, dtype="float32") as srv:
            srv.warm(graph.netlist)
            plan = pack_graphs([graph]).plan
        height = window_rows(MODEL.forward_gru, np.float32)
        assert set(plan._windows) == {(MODEL.use_custom_batches, height)}
        assert set(plan._features) == {np.dtype(np.float32)}
        assert pack_cache_info().size == 1


class TestReplicaIsolation:
    def test_refresh_parameters_propagates_new_weights(self, problem_set):
        pairs, expected = problem_set
        model = DeepSeq(ModelConfig(hidden=12, iterations=2, seed=0))
        with Server(model, workers=2, batch_size=2, max_latency_ms=5,
                    dtype="float64") as srv:
            before = srv.predict(*pairs[0])
            np.testing.assert_array_equal(expected[0].tr, before.tr)
            for p in model.parameters():
                p.data[...] += 0.05
            stale = srv.predict(*pairs[0])  # replicas unaffected by edit
            np.testing.assert_array_equal(before.tr, stale.tr)
            srv.refresh_parameters()
            fresh = srv.predict(*pairs[0])
            np.testing.assert_array_equal(
                model.predict(*pairs[0]).tr, fresh.tr
            )
            assert np.abs(fresh.tr - before.tr).max() > 0


@pytest.mark.slow
class TestSoak:
    def test_sustained_load_square(self, problem_set):
        """A longer soak: 8 clients x 40 requests over 4 workers."""
        pairs, expected = problem_set
        with Server(
            MODEL, workers=4, batch_size=8, max_latency_ms=10, dtype="float64"
        ) as srv:
            outcomes = hammer(srv, pairs, n_threads=8, per_thread=40)
            srv.drain(timeout=120)
            snap = srv.metrics.snapshot()
        assert len(outcomes) == 8 * 40
        for idx, result in outcomes:
            np.testing.assert_array_equal(expected[idx].tr, result.tr)
        assert snap["completed"] == 8 * 40
        assert snap["mean_batch_size"] > 1.0  # load actually batched

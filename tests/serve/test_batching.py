"""The micro-batching policy on its own: no threads, no sleeps, a fake clock.

:class:`repro.serve.batching.MicroBatcher` is the one place the serving
flush / claim / expiry rule lives; both front ends only supply the waiting.
These tests step a fake clock through it, so every timing statement is
exact rather than "within a sleep's tolerance", and replay Poisson arrival
traces against one modelled worker (:func:`replay`).  The threaded and
asyncio front ends are covered by ``test_concurrency.py`` and
``test_gateway.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import ServeConfig
from repro.serve.batching import (
    DeadlineExceeded,
    MicroBatcher,
    QueueFull,
    ServerClosed,
    validate_request,
)
from repro.serve.metrics import ServerMetrics


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Harness:
    """A batcher on a fake clock, recording every resolution by request id."""

    def __init__(self, **config) -> None:
        config.setdefault("batch_size", 4)
        config.setdefault("max_pending", 16)
        self.clock = FakeClock()
        self.metrics = ServerMetrics()
        self.batcher = MicroBatcher(ServeConfig(**config), self.metrics, self.clock)
        self.resolved: dict[int, list] = {}
        self.admitted = 0

    def admit(self, deadline_ms=None):
        rid = self.admitted
        outcomes: list = []
        request = self.batcher.admit(
            rid,
            f"workload-{rid}",
            deadline_ms,
            lambda value, error: outcomes.append((value, error)),
        )
        self.resolved[rid] = outcomes
        self.admitted += 1
        return request

    def hold_in_flight(self) -> list:
        """Admit and claim one request outside the numbered ones, so a
        batch is running: only then does a partial batch wait for
        companions."""
        self.batcher.admit("held", "workload-held", None, lambda value, error: None)
        return self.batcher.claim()

    def counts(self) -> dict:
        return {
            name: self.metrics.count(name)
            for name in ("submitted", "completed", "failed", "expired", "rejected")
        }


class TestFlushTiming:
    def test_empty_batcher_has_nothing_to_wait_for(self):
        assert Harness().batcher.wait_s() is None

    def test_lone_request_on_an_idle_batcher_is_due_at_once(self):
        h = Harness(batch_size=4, max_latency_ms=10_000.0)
        h.admit()
        assert h.batcher.inflight == 0
        assert h.batcher.wait_s() == 0.0
        assert [r.payload for r in h.batcher.claim()] == [0]

    def test_flush_now_at_batch_size(self):
        h = Harness(batch_size=4, max_latency_ms=250.0)
        h.hold_in_flight()
        for _ in range(3):
            h.admit()
            assert h.batcher.wait_s() > 0
        h.admit()
        assert h.batcher.wait_s() == 0.0

    def test_wait_counts_down_from_the_oldest_request(self):
        h = Harness(batch_size=4, max_latency_ms=250.0)
        h.hold_in_flight()
        h.admit()
        assert h.batcher.wait_s() == 0.25
        h.clock.advance(0.125)
        assert h.batcher.wait_s() == 0.125
        h.admit()  # a younger request never pushes the flush out
        assert h.batcher.wait_s() == 0.125
        h.clock.advance(0.125)
        assert h.batcher.wait_s() == 0.0  # due exactly at oldest + max_latency
        h.clock.advance(1.0)
        assert h.batcher.wait_s() == 0.0

    def test_residual_keeps_its_own_flush_clock(self):
        h = Harness(batch_size=4, max_latency_ms=250.0)
        for _ in range(5):
            h.admit()
            h.clock.advance(0.0625)
        assert [r.payload for r in h.batcher.claim()] == [0, 1, 2, 3]
        # Request 4 was admitted 0.0625 s ago: 0.1875 s of its bound remain.
        assert h.batcher.wait_s() == 0.1875

    def test_deadline_counts_from_admission_while_a_batch_runs(self):
        """The in-flight batch's start moves no deadline: a request that
        arrives mid-sweep waits for companions from its own admission."""
        h = Harness(batch_size=4, max_latency_ms=250.0)
        h.hold_in_flight()
        h.clock.advance(0.5)  # the held batch has been running for 0.5 s
        h.admit()
        assert h.batcher.wait_s() == 0.25
        h.clock.advance(0.125)
        h.admit()
        assert h.batcher.wait_s() == 0.125
        h.clock.advance(0.125)
        assert h.batcher.wait_s() == 0.0  # due although the batch still runs
        assert h.batcher.inflight == 1

    @pytest.mark.parametrize("resolve", ["finish", "fail"])
    def test_residual_is_due_at_once_when_the_batch_resolves(self, resolve):
        h = Harness(batch_size=4, max_latency_ms=250.0)
        for _ in range(5):
            h.admit()
        live = h.batcher.claim()
        assert [r.payload for r in live] == [0, 1, 2, 3]
        assert h.batcher.wait_s() == 0.25  # the residual waits behind them
        if resolve == "finish":
            h.batcher.finish(live, ["a", "b", "c", "d"], h.batcher.clock())
        else:
            h.batcher.fail(live, RuntimeError("worker died"))
        assert h.batcher.inflight == 0
        assert h.batcher.wait_s() == 0.0
        assert [r.payload for r in h.batcher.claim()] == [4]

    def test_closing_flushes_regardless_of_age(self):
        h = Harness(batch_size=4, max_latency_ms=10_000.0)
        h.hold_in_flight()
        h.admit()
        assert h.batcher.wait_s() == 10.0
        h.batcher.close()
        assert h.batcher.wait_s() == 0.0
        assert [r.payload for r in h.batcher.claim()] == [0]
        assert h.batcher.wait_s() is None


def sweep_s(k: int) -> float:
    """Modelled packed-sweep time of ``k`` requests: ``8.9 + 4.0·k`` ms,
    fitted to the traced ``runtime.sweep_k1_s`` / ``sweep_k8_s`` of the
    ``serve_mixed`` benchmark."""
    return (8.9 + 4.0 * k) / 1000.0


def replay(rate: float, n: int = 600, seed: int = 0) -> dict:
    """Poisson arrivals at ``rate`` per second against one worker that
    loops like ``Server``'s: claim when :meth:`MicroBatcher.wait_s` says
    due, sweep for :func:`sweep_s`, finish, ask again.  Returns per-request
    queue waits, the sweeps each one sat out, the batch sizes and the
    largest backlog."""
    h = Harness(batch_size=8, max_pending=n, max_latency_ms=25.0)
    batcher, clock = h.batcher, h.clock
    arrivals = clock.now + np.cumsum(
        np.random.default_rng(seed).exponential(1.0 / rate, n)
    )
    running = None  # (live requests, start, end)
    #: per request: time left on the sweep in progress at its arrival, and
    #: the number and summed length of the sweeps claimed while it queued.
    in_progress, sat_out, ahead = [], np.zeros(n, int), np.zeros(n)
    waits, sizes, backlog = np.zeros(n), [], 0
    i = 0
    while i < n or running is not None or batcher.pending:
        if running is None and batcher.wait_s() == 0.0:
            live = batcher.claim()
            for req in live:
                waits[req.payload] = clock.now - req.t_submit
            left = slice(live[-1].payload + 1, h.admitted)  # FIFO residual
            sat_out[left] += 1
            ahead[left] += sweep_s(len(live))
            sizes.append(len(live))
            running = (live, clock.now, clock.now + sweep_s(len(live)))
            continue
        arrival = arrivals[i] if i < n else np.inf
        if running is not None and running[2] <= arrival:
            live, started, clock.now = running
            batcher.finish(live, [None] * len(live), started)
            running = None
            continue
        wait = batcher.wait_s()
        # One worker: a timer can only fire while nothing runs, and with
        # nothing running every pending request is already due.
        assert running is not None or wait is None
        clock.now = arrival
        in_progress.append(0.0 if running is None else running[2] - arrival)
        h.admit()
        backlog = max(backlog, batcher.pending)
        i += 1
    assert batcher.idle and h.counts()["completed"] == n
    return {
        "waits": waits,
        "in_progress": np.array(in_progress),
        "sat_out": sat_out,
        "ahead": ahead,
        "sizes": np.array(sizes),
        "backlog": backlog,
    }


class TestReplayOneWorker:
    """Open-loop arrival traces on the fake clock against one modelled
    worker: the rule dispatches on idle, so a request waits only for
    sweeps — the one running when it arrived and any claimed ahead of it —
    never for ``max_latency_ms``."""

    @pytest.mark.parametrize("rate", [20, 40, 80])
    def test_requests_wait_only_for_sweeps(self, rate):
        r = replay(rate)
        np.testing.assert_allclose(
            r["waits"], r["in_progress"] + r["ahead"], rtol=0, atol=1e-9
        )
        assert r["backlog"] <= 8  # never more than one full batch queued

    def test_at_20_per_s_a_request_waits_out_at_most_the_sweep_in_progress(self):
        r = replay(20)
        # A request that found the worker idle never waited at all; one
        # that arrived mid-sweep waited out that sweep and was claimed
        # next, with the whole backlog, in one pack.
        assert (r["waits"][r["in_progress"] == 0] == 0).all()
        assert (r["sat_out"] == 0).all()
        assert r["waits"].mean() < 0.005  # the old timer alone held 25 ms
        assert r["sizes"].mean() < 1.1

    def test_at_80_per_s_the_backlog_batches(self):
        r = replay(80)
        # One request per sweep would need 80 x 12.9 ms = 103 % of the
        # worker; the backlog that forms behind each sweep packs instead.
        assert r["sizes"].mean() > 1.2
        assert r["backlog"] <= 8
        assert r["waits"].max() < 2 * sweep_s(8)
        # The claim ladder (batch_size >> k chunks) modelled 21 ms here.
        assert np.percentile(r["waits"], 95) < 0.021


class TestLadderClaim:
    @pytest.mark.parametrize("batch_size", [1, 4, 6, 8])
    def test_claim_sizes_follow_the_ladder_in_fifo_order(self, batch_size):
        """Each claim takes ``min(pending, batch_size)`` off the head."""
        for pending in range(1, 2 * batch_size + 1):
            h = Harness(batch_size=batch_size, max_pending=2 * batch_size)
            for _ in range(pending):
                h.admit()
            taken = []
            while h.batcher.pending:
                before = h.batcher.pending
                chunk = [r.payload for r in h.batcher.claim()]
                assert len(chunk) == min(before, batch_size)
                assert h.batcher.pending == before - len(chunk)
                taken.append(chunk)
            assert [rid for chunk in taken for rid in chunk] == list(range(pending))
            assert h.batcher.inflight == pending

    @pytest.mark.parametrize("backlog", [3, 5, 7])
    def test_backlog_behind_a_running_batch_is_one_pack(self, backlog):
        h = Harness(batch_size=8, max_latency_ms=25.0)
        h.hold_in_flight()
        for _ in range(backlog):
            h.admit()
        h.clock.advance(0.025)
        assert h.batcher.wait_s() == 0.0
        assert [r.payload for r in h.batcher.claim()] == list(range(backlog))
        assert h.batcher.pending == 0

    def test_claim_on_an_empty_queue_is_empty(self):
        h = Harness()
        assert h.batcher.claim() == []
        assert h.batcher.idle


class TestAdmission:
    def test_queue_full_is_nonblocking_and_counted(self):
        h = Harness(batch_size=2, max_pending=3)
        for _ in range(3):
            assert not h.batcher.full
            h.admit()
        assert h.batcher.full
        with pytest.raises(QueueFull, match="max_pending=3"):
            h.admit()
        assert h.batcher.pending == 3
        assert h.counts()["rejected"] == 1 and h.counts()["submitted"] == 3
        h.batcher.claim()
        assert not h.batcher.full
        h.admit()

    def test_closed_batcher_admits_nothing(self):
        h = Harness(batch_size=2, max_pending=2)
        h.admit()
        h.admit()
        h.batcher.close()
        # A blocked submitter must stop waiting: closed wins over full.
        assert not h.batcher.full
        with pytest.raises(ServerClosed):
            h.admit()
        assert h.counts()["rejected"] == 0 and h.batcher.pending == 2

    def test_deadline_stamping(self):
        h = Harness(deadline_ms=40.0)
        default = h.admit()
        explicit = h.admit(deadline_ms=5.0)
        assert default.t_submit == explicit.t_submit == 100.0
        assert default.t_deadline == 100.0 + 0.040
        assert explicit.t_deadline == 100.0 + 0.005
        assert Harness().admit().t_deadline is None


class TestExpiry:
    def test_expired_requests_never_reach_the_live_list(self):
        h = Harness(batch_size=4)
        h.admit(deadline_ms=10.0)
        h.admit()
        h.admit(deadline_ms=30.0)
        h.admit(deadline_ms=20.0)
        h.clock.advance(0.020)  # 20 ms: only the 10 ms deadline has passed
        live = h.batcher.claim()
        assert [r.payload for r in live] == [1, 2, 3]
        ((value, error),) = h.resolved[0]
        assert value is None and isinstance(error, DeadlineExceeded)
        assert "queued 20.0 ms" in str(error) and "deadline was 10.0 ms" in str(error)
        assert h.counts()["expired"] == 1
        assert h.batcher.inflight == 3
        assert h.metrics.queue_wait.count == 3 and h.metrics.e2e.count == 1

    def test_a_fully_expired_claim_leaves_the_batcher_idle(self):
        h = Harness(batch_size=2, deadline_ms=1.0)
        h.admit()
        h.admit()
        h.clock.advance(1.0)
        assert h.batcher.claim() == []
        assert h.batcher.idle and h.counts()["expired"] == 2


class TestResolution:
    def test_finish_resolves_values_and_per_request_failures(self):
        h = Harness(batch_size=3)
        for _ in range(3):
            h.admit()
        h.clock.advance(0.010)
        live = h.batcher.claim()
        started = h.batcher.clock()
        h.clock.advance(0.030)
        boom = ValueError("poison")
        h.batcher.finish(live, ["a", boom, "c"], started)
        assert h.resolved == {0: [("a", None)], 1: [(None, boom)], 2: [("c", None)]}
        assert h.counts()["completed"] == 2 and h.counts()["failed"] == 1
        assert h.batcher.idle
        snap = h.metrics.snapshot()
        assert snap["batches"] == 1 and snap["batched_circuits"] == 3
        assert snap["service_ms"]["max"] == pytest.approx(30.0)
        assert snap["queue_wait_ms"]["max"] == pytest.approx(10.0)
        assert snap["e2e_ms"]["max"] == pytest.approx(40.0)

    def test_fail_skips_what_already_resolved(self):
        h = Harness(batch_size=4)
        for _ in range(4):
            h.admit()
        live = h.batcher.claim()
        h.batcher.finish(live[:2], ["a", "b"], h.batcher.clock())
        died = RuntimeError("worker died")
        h.batcher.fail(live, died)
        assert h.resolved[0] == [("a", None)] and h.resolved[1] == [("b", None)]
        assert h.resolved[2] == [(None, died)] and h.resolved[3] == [(None, died)]
        assert h.counts()["completed"] == 2 and h.counts()["failed"] == 2
        assert h.batcher.idle

    def test_fail_pending_resolves_each_queued_request_once(self):
        h = Harness(batch_size=2, max_pending=8)
        for _ in range(5):
            h.admit()
        claimed = h.batcher.claim()
        closed = ServerClosed("closed before execution")
        h.batcher.fail_pending(closed)
        h.batcher.fail_pending(closed)  # nothing left: a no-op
        assert h.batcher.pending == 0
        for rid in (2, 3, 4):
            assert h.resolved[rid] == [(None, closed)]
        assert h.resolved[0] == [] and h.resolved[1] == []  # still in flight
        assert h.counts()["failed"] == 3 and h.batcher.inflight == len(claimed) == 2


class TestValidateRequest:
    class _Workload:
        num_pis = 5

    def test_pi_mismatch(self):
        with pytest.raises(ValueError, match="workload has 5 PIs, circuit has 4"):
            validate_request(4, self._Workload(), None)
        validate_request(5, self._Workload(), None)
        validate_request(4, object(), None)  # no PI count to compare

    @pytest.mark.parametrize("deadline_ms", [0, -1.0])
    def test_nonpositive_deadline(self, deadline_ms):
        with pytest.raises(ValueError, match="deadline_ms"):
            validate_request(5, self._Workload(), deadline_ms)
        validate_request(5, self._Workload(), 0.001)


_OPS = st.one_of(
    st.tuples(st.just("admit"), st.sampled_from([None, 5.0, 50.0])),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.01, 0.1])),
    st.tuples(st.just("claim"), st.none()),
    st.tuples(st.just("finish"), st.booleans()),
    st.tuples(st.just("fail"), st.none()),
    st.tuples(st.just("fail_pending"), st.none()),
    st.tuples(st.just("close"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(
    batch_size=st.sampled_from([1, 2, 4, 8]),
    ops=st.lists(_OPS, max_size=60),
)
def test_property_every_request_resolves_once_and_counters_balance(batch_size, ops):
    h = Harness(batch_size=batch_size, max_pending=2 * batch_size, max_latency_ms=20.0)
    claimed: list[list] = []

    def check():
        c = h.counts()
        assert c["submitted"] == h.admitted
        assert c["submitted"] == (
            c["completed"] + c["failed"] + c["expired"]
            + h.batcher.pending + h.batcher.inflight
        )
        assert h.batcher.inflight == sum(len(chunk) for chunk in claimed)
        assert all(len(outcomes) <= 1 for outcomes in h.resolved.values())

    for op, arg in ops:
        if op == "admit":
            try:
                h.admit(deadline_ms=arg)
            except (QueueFull, ServerClosed):
                pass
        elif op == "advance":
            h.clock.advance(arg)
        elif op == "claim":
            before = h.batcher.pending
            live = h.batcher.claim()
            assert h.batcher.pending == before - min(batch_size, before)
            if live:
                claimed.append(live)
        elif op == "finish" and claimed:
            live = claimed.pop(0)
            outcomes = [ValueError("x") if arg and i == 0 else i for i in range(len(live))]
            h.batcher.finish(live, outcomes, h.batcher.clock())
        elif op == "fail" and claimed:
            h.batcher.fail(claimed.pop(0), RuntimeError("died"))
        elif op == "fail_pending":
            h.batcher.fail_pending(ServerClosed("closed"))
        elif op == "close":
            h.batcher.close()
        check()

    # Shut down the way a draining front end does: everything still
    # queued flushes at once, everything claimed finishes.
    h.batcher.close()
    while h.batcher.wait_s() is not None:
        assert h.batcher.wait_s() == 0.0
        live = h.batcher.claim()
        if live:
            claimed.append(live)
        check()
    for live in claimed:
        h.batcher.finish(live, list(range(len(live))), h.batcher.clock())
    claimed.clear()
    check()
    assert h.batcher.idle
    assert all(len(outcomes) == 1 for outcomes in h.resolved.values())

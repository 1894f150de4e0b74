"""Unit tests: server robustness — request armor, event filtering,
preempt latching, cancel bookkeeping, non-blocking client I/O.

These drive a real :class:`~repro.serve.server.Server` with zero real
workers (fake worker handles + an in-process event queue), so the
failure modes that need precise interleavings — a stale event from a
SIGKILLed incarnation, a preempt racing a finish, a stalled client —
are reproduced deterministically instead of probabilistically.
"""

import json
import queue
import socket
import time

import pytest

from repro.serve import JobSpec, ServeConfig, Server
from repro.serve.scheduler import Assignment
from repro.serve.server import STALL_TICKS, _Worker

SPEC = dict(waters=8, steps=6, record_every=2, checkpoint_every=2)


class _FakeProc:
    """Stands in for a worker mp.Process (liveness + pid only)."""

    def __init__(self, pid=1234, alive=True):
        self.pid = pid
        self._alive = alive

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        self._alive = False

    def terminate(self):
        self._alive = False


@pytest.fixture
def server(tmp_path):
    srv = Server(tmp_path, ServeConfig(workers=0, tick=0.01))
    # Plain queue: no mp feeder-thread latency between put and get.
    srv._evt_q = queue.Queue()
    yield srv
    srv.close()


def fake_worker(server, job_ids, pid=1234, priority=0, arrival=0, alive=True):
    """Attach a fabricated busy worker handle to the server."""
    w = _Worker(len(server.workers))
    w.proc = _FakeProc(pid=pid, alive=alive)
    w.pid = pid
    w.cmd_q = queue.Queue()
    w.assignment = Assignment(jobs=tuple(job_ids), priority=priority,
                              arrival=arrival)
    server.workers.append(w)
    return w


def running_job(server, name, priority=0):
    job = server.queue.submit(JobSpec(name=name, priority=priority, **SPEC))
    server.queue.transition(name, "RUNNING")
    return job


def done_event(w, job_ids, pid=None):
    return {"evt": "done", "worker": w.idx,
            "pid": w.pid if pid is None else pid,
            "jobs": list(job_ids), "steps": {j: SPEC["steps"] for j in job_ids},
            "seconds": 0.1, "wall": time.time()}


def drain(q):
    out = []
    while True:
        try:
            out.append(q.get_nowait())
        except queue.Empty:
            return out


class TestRequestArmor:
    def test_duplicate_submit_refused_not_fatal(self, server):
        # A resubmitted job name is a client mistake; it must come back
        # as {ok: false}, never as an exception that unwinds the loop.
        spec = JobSpec(name="dup", **SPEC).to_dict()
        assert server._handle_request({"op": "submit", "spec": spec})["ok"]
        resp = server._handle_request({"op": "submit", "spec": spec})
        assert resp == {"ok": False, "error": "job id 'dup' already exists"}
        server.tick()  # the loop is still healthy
        assert len(server._handle_request({"op": "jobs"})["jobs"]) == 1

    def test_malformed_request_never_raises(self, server):
        # Even a request the dispatcher never anticipated (wrong type,
        # missing fields) must yield an error response, not a crash.
        for req in [["not", "a", "dict"], {"op": "status"},
                    {"op": "cancel"}, {}]:
            resp = server._handle_request(req)
            assert resp["ok"] is False
            assert resp["error"]


class TestEventFiltering:
    def test_stale_incarnation_event_dropped(self, server):
        # A SIGKILLed worker's buffered 'done' surfacing after respawn
        # must not clear the replacement's assignment.
        running_job(server, "j")
        w = fake_worker(server, ["j"], pid=1234)
        server._evt_q.put(done_event(w, ["j"], pid=999))
        server._drain_events()
        assert server.queue.jobs["j"].state == "RUNNING"
        assert w.assignment is not None

        server._evt_q.put(done_event(w, ["j"]))  # current incarnation
        server._drain_events()
        assert server.queue.jobs["j"].state == "DONE"
        assert w.assignment is None


class TestStallFlag:
    def test_silent_busy_worker_is_flagged_until_its_next_event(self, server):
        # Observability only: a busy worker that sends nothing for
        # STALL_TICKS ticks shows "stalled" (and keeps its assignment);
        # any event from it clears the flag.  An idle worker sends no
        # events and is never flagged.
        running_job(server, "j")
        busy = fake_worker(server, ["j"], pid=1234)
        idle = fake_worker(server, [], pid=5678)
        idle.assignment = None

        def stalled():
            return {w["idx"]: w["stalled"] for w in server.metrics()["workers"]}

        for _ in range(STALL_TICKS - 1):
            server._check_stalls()
        assert stalled() == {busy.idx: False, idle.idx: False}
        server._check_stalls()
        assert stalled() == {busy.idx: True, idle.idx: False}
        for _ in range(STALL_TICKS):
            server._check_stalls()  # flagged once, still only the busy one
        assert stalled() == {busy.idx: True, idle.idx: False}
        assert busy.assignment is not None
        assert sum("heartbeat stalled" in line for line in server._worker_log) == 1

        server._evt_q.put({"evt": "slice", "worker": busy.idx, "pid": busy.pid,
                           "steps": {"j": 2}, "wall": time.time()})
        server._drain_events()
        assert stalled() == {busy.idx: False, idle.idx: False}
        assert server.queue.jobs["j"].steps_done == 2


class TestPreemptLatch:
    def test_preempt_sent_once_per_assignment(self, server):
        low = running_job(server, "low", priority=0)
        w = fake_worker(server, ["low"], priority=0, arrival=low.arrival)
        server.queue.submit(JobSpec(name="high", priority=5, **SPEC))
        for _ in range(5):  # five scheduler ticks during one long slice
            server._schedule()
        preempts = [c for c in drain(w.cmd_q) if c["cmd"] == "preempt"]
        assert len(preempts) == 1
        assert preempts[0]["jobs"] == ["low"]

    def test_latch_resets_on_next_dispatch(self, server):
        low = running_job(server, "low", priority=0)
        w = fake_worker(server, ["low"], priority=0, arrival=low.arrival)
        server.queue.submit(JobSpec(name="high", priority=5, **SPEC))
        server._schedule()
        assert w.preempt_sent
        server._evt_q.put({**done_event(w, ["low"]), "evt": "preempted",
                           "steps": {"low": 2}})
        server._drain_events()
        assert not w.preempt_sent
        assert server.queue.jobs["low"].state == "PENDING"


class TestCancelBookkeeping:
    def test_cancel_then_done_race_clears_intent(self, server):
        # The job finishes before the preempt lands: it ends DONE and
        # the cancel intent must not linger.
        running_job(server, "j")
        w = fake_worker(server, ["j"])
        assert server._cancel("j") == {"ok": True, "state": "CANCELLING"}
        assert "j" in server._cancel_requested
        server._evt_q.put(done_event(w, ["j"]))
        server._drain_events()
        assert server.queue.jobs["j"].state == "DONE"
        assert not server._cancel_requested

    def test_cancel_survives_worker_death(self, server):
        # Worker dies holding a cancel-requested job: the reap must
        # honor the cancellation instead of silently requeueing.
        running_job(server, "j")
        fake_worker(server, ["j"], alive=False)
        server._cancel_requested.add("j")
        server._spawn = lambda w: None  # no real replacement process
        server._reap_dead()
        assert server.queue.jobs["j"].state == "CANCELLED"
        assert not server._cancel_requested


class TestBatchedResume:
    def preempt_event(self, w, steps, **extra):
        return {**done_event(w, list(steps)), "evt": "preempted",
                "steps": dict(steps), **extra}

    def idle_worker(self, server):
        w = fake_worker(server, [])
        w.assignment = None
        return w

    def test_preempted_batch_is_redispatched_as_a_batch(self, server):
        for name in ("a", "b"):
            running_job(server, name)
        w = fake_worker(server, ["a", "b"])
        server._evt_q.put(self.preempt_event(w, {"a": 2, "b": 2}))
        server._drain_events()
        assert server.metrics()["batched_resumes"] == 0
        server._schedule()
        assert w.assignment.jobs == ("a", "b")
        run = [c for c in drain(w.cmd_q) if c["cmd"] == "run"]
        assert [(j["id"], j["steps_done"]) for j in run[0]["jobs"]] == \
            [("a", 2), ("b", 2)]
        assert server.metrics()["batched_resumes"] == 1

    def test_divergent_lanes_regroup_by_true_progress(self, server):
        # The worker found lane b on an older snapshot and reported each
        # lane's true step: the next plan must not fuse them again.
        for name in ("a", "b", "c"):
            running_job(server, name)
        w = fake_worker(server, ["a", "b", "c"])
        server._evt_q.put(self.preempt_event(w, {"a": 4, "b": 2, "c": 4}))
        server._drain_events()
        other = self.idle_worker(server)
        server._schedule()
        assert w.assignment.jobs == ("a", "c")
        assert other.assignment.jobs == ("b",)

    def test_metrics_sum_what_dispatches_paid_for_preparation(self, server):
        for name in ("a", "b", "c"):
            running_job(server, name)
        w = fake_worker(server, ["a"])
        server._evt_q.put({**done_event(w, ["a"]), "prepare_seconds": 0.4,
                           "prepared_from_cache": False})
        server._drain_events()
        for name in ("b", "c"):
            w.assignment = Assignment(jobs=(name,), priority=0, arrival=0)
            server._evt_q.put({**done_event(w, [name]), "prepare_seconds": 0.001,
                               "prepared_from_cache": True})
            server._drain_events()
        m = server.metrics()
        assert (m["prepare_misses"], m["prepare_hits"]) == (1, 2)
        assert m["prepare_seconds"] == pytest.approx(0.402)


class TestNonBlockingClients:
    def request(self, server, payload, ticks=3):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(5.0)
        try:
            s.connect(str(server.sock_path))
            s.sendall(payload)
            for _ in range(ticks):
                server.tick()
            return s.recv(65536)
        finally:
            s.close()

    def test_stalled_client_does_not_block_ticks(self, server):
        # A client that connects and sends nothing must cost the main
        # loop nothing beyond the bounded select wait.
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        idle.connect(str(server.sock_path))
        try:
            t0 = time.monotonic()
            for _ in range(3):
                server.tick()
            assert time.monotonic() - t0 < 1.0
            # A prompt client is still served while the idler hangs.
            raw = self.request(server, b'{"op": "ping"}\n')
            assert json.loads(raw)["ok"]
        finally:
            idle.close()

    def test_stalled_client_expires(self, server):
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        idle.settimeout(5.0)
        idle.connect(str(server.sock_path))
        try:
            server.tick()
            assert len(server._conns) == 1
            server._conns[0].deadline = 0.0  # fast-forward past the timeout
            server.tick()
            assert not server._conns
            assert idle.recv(1) == b""  # server hung up
        finally:
            idle.close()

    def test_bad_json_gets_error_response(self, server):
        raw = self.request(server, b"{definitely not json\n")
        resp = json.loads(raw)
        assert resp["ok"] is False
        assert "bad request" in resp["error"]

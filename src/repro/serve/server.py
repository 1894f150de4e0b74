"""The simulation service: socket front end, worker pool, scheduler loop.

``repro serve --dir STATE`` runs a :class:`Server` over one state
directory::

    STATE/
      queue.rrs      append-only durable job journal (single writer)
      serve.sock     local (unix-domain) JSONL control socket
      jobs/<id>/     per-job artifacts: traj.rrs, ck/, energy.jsonl

Clients (``repro submit|jobs|cancel``, the smoke harness, tests) speak
a one-request-per-connection JSONL protocol over the socket: one JSON
object in, one JSON object out.  All queue mutations happen in the
server process, which is what keeps the append-only journal safe
without file locks.

The main loop is a single thread: poll the socket (bounded wait),
drain worker events, reap dead workers (requeue their jobs, spawn
replacements — the self-healing contract), then run the pure scheduler
(:func:`repro.serve.scheduler.plan`) and act on its decisions.  Server
phases are timed into a :class:`~repro.perf.timers.Timers`, surfaced
with the pool metrics; the per-worker heartbeat record is a
:class:`~repro.fault.detect.HeartbeatBoard` (a busy worker whose events
stop for :data:`STALL_TICKS` ticks is marked stalled for observability;
process liveness is the authoritative death signal — on one machine
``is_alive`` is honest, unlike a distributed system where the heartbeat
*is* the signal).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import selectors
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from queue import Empty

from repro.fault.detect import HeartbeatBoard
from repro.io import unique_artifact_dir
from repro.perf.timers import Timers
from repro.serve.jobs import TERMINAL_STATES, JobSpec
from repro.serve.queue import JobQueue, QueueError
from repro.serve.scheduler import Assignment, plan
from repro.serve.workers import worker_main

__all__ = ["Server", "ServeConfig", "SOCKET_NAME"]

SOCKET_NAME = "serve.sock"

#: Main-loop ticks a busy worker may go without an event (``started``,
#: ``slice`` or a finish) before it is flagged stalled.
STALL_TICKS = 100


@dataclass
class ServeConfig:
    """Server knobs (none of them affect artifact bits)."""

    workers: int = 2
    max_batch: int = 8
    kernel_tier: str | None = None
    #: Per worker process: threads farming the lanes of a batch's mesh
    #: pass on the compiled tier (a batch of one runs single-threaded).
    kernel_threads: int | None = None
    #: Main-loop wait per iteration, seconds.
    tick: float = 0.05
    #: Exit once every job is terminal and this many seconds pass with
    #: an empty queue (0: serve until shutdown is requested).
    idle_exit: float = 0.0


class _Worker:
    """Server-side handle of one worker process."""

    __slots__ = ("idx", "proc", "cmd_q", "assignment", "pid", "kernel",
                 "missed", "preempt_sent")

    def __init__(self, idx: int):
        self.idx = idx
        self.proc = None
        self.cmd_q = None
        self.assignment: Assignment | None = None
        self.pid = 0
        #: The worker's ``repro.kernels.kernel_info()`` — its tier, threads
        #: and build; empty until the worker is online.
        self.kernel: dict = {}
        self.missed = 0
        #: One preempt command per assignment: the scheduler re-plans
        #: every tick, so without this latch a long slice would pile up
        #: stale preempts that bleed into the next assignment.
        self.preempt_sent = False

    @property
    def busy(self) -> bool:
        return self.assignment is not None

    def send_preempt(self) -> bool:
        """Ask the current assignment to stop at its slice boundary.

        Idempotent per assignment; the command is tagged with the
        assignment's job ids so the worker can discard it if it arrives
        after that assignment already finished.
        """
        if self.preempt_sent or self.assignment is None:
            return False
        self.cmd_q.put({"cmd": "preempt", "jobs": list(self.assignment.jobs)})
        self.preempt_sent = True
        return True


class _Conn:
    """One in-flight client connection (non-blocking, selector-driven).

    The main loop is single-threaded; a slow or stalled client must
    never block scheduling, event draining, or dead-worker reaping.  So
    connections accumulate bytes on read-readiness, the request is
    handled the instant its newline arrives, and an unflushed response
    drains on write-readiness — with a hard deadline after which the
    connection is dropped.
    """

    __slots__ = ("sock", "inbuf", "outbuf", "deadline")

    #: Seconds a connection may exist before it is summarily closed.
    TIMEOUT = 5.0
    #: Refuse requests larger than this (the protocol is one small
    #: JSON object; anything bigger is a confused or hostile client).
    MAX_REQUEST = 1 << 20

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = b""
        self.outbuf = b""
        self.deadline = time.time() + self.TIMEOUT


class Server:
    """Multi-run simulation service over one state directory."""

    def __init__(self, directory, config: ServeConfig = ServeConfig()):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.queue = JobQueue(self.directory)
        self.jobs_root = self.directory / "jobs"
        self.timers = Timers()
        self.board = HeartbeatBoard()
        self.started_at = time.time()
        self._shutdown = False
        self._idle_since: float | None = None
        self._cancel_requested: set[str] = set()
        self._worker_log: list[str] = []

        # Claim the socket before forking anything: a second server on a
        # live directory must refuse (its shutdown would unlink the
        # incumbent's socket) and must leak no worker processes doing so.
        self.sock_path = self.directory / SOCKET_NAME
        if self.sock_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            try:
                probe.connect(str(self.sock_path))
            except OSError:
                self.sock_path.unlink()  # stale socket of a dead server
            else:
                self.queue.close()
                raise RuntimeError(
                    f"a live server already owns {self.sock_path}")
            finally:
                probe.close()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(self.sock_path))
        self._sock.listen(16)
        self._sock.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._sock, selectors.EVENT_READ)
        self._conns: list[_Conn] = []

        self._ctx = mp.get_context("fork")
        self._evt_q = self._ctx.Queue()
        self.workers = [_Worker(i) for i in range(config.workers)]
        for w in self.workers:
            self._spawn(w)

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, w: _Worker) -> None:
        w.cmd_q = self._ctx.Queue()
        w.proc = self._ctx.Process(
            target=worker_main,
            args=(w.idx, w.cmd_q, self._evt_q, self.config.kernel_tier,
                  self.config.kernel_threads, os.getpid()),
            daemon=True,
        )
        w.proc.start()
        w.pid = w.proc.pid
        w.assignment = None
        w.preempt_sent = False
        w.missed = 0
        self.board.clear(w.idx)

    def _reap_dead(self) -> None:
        """Requeue jobs of dead workers and spawn replacements."""
        for w in self.workers:
            if w.proc.is_alive():
                continue
            self.board.mark_crash(w.idx)
            if w.assignment is not None:
                for job_id in w.assignment.jobs:
                    job = self.queue.jobs[job_id]
                    if job.state == "RUNNING":
                        self.queue.requeue(job_id, reason="worker-died")
                        if job_id in self._cancel_requested:
                            # The cancel must survive the worker death,
                            # not silently turn back into a requeue.
                            self.queue.transition(job_id, "CANCELLED")
                            self._cancel_requested.discard(job_id)
                self._log(f"worker {w.idx} (pid {w.pid}) died; requeued "
                          f"{list(w.assignment.jobs)}")
                w.assignment = None
            else:
                self._log(f"worker {w.idx} (pid {w.pid}) died while idle")
            self._spawn(w)

    def _dispatch(self, w: _Worker, assignment: Assignment) -> None:
        jobs = []
        for job_id in assignment.jobs:
            job = self.queue.jobs[job_id]
            fields = {"started_at": job.started_at or time.time()}
            if not job.artifact_dir:
                fields["artifact_dir"] = str(
                    unique_artifact_dir(self.jobs_root, job.id))
            self.queue.transition(job.id, "RUNNING", reason="assign", **fields)
            jobs.append({"id": job.id, "spec": job.spec.to_dict(),
                         "artifact_dir": job.artifact_dir,
                         "steps_done": job.steps_done})
        w.assignment = assignment
        w.preempt_sent = False
        if len(jobs) > 1 and jobs[0]["steps_done"] > 0:
            self.timers.count("serve_batched_resumes")
        w.cmd_q.put({"cmd": "run", "jobs": jobs})

    # -- event handling -----------------------------------------------------

    def _drain_events(self) -> None:
        while True:
            try:
                evt = self._evt_q.get_nowait()
            except Empty:
                return
            w = self.workers[evt["worker"]]
            if evt.get("pid") != w.pid:
                # A SIGKILLed worker's queued events can surface after
                # _reap_dead already requeued its jobs and spawned a
                # replacement; applying them would clear the
                # replacement's assignment and double-dispatch.  Every
                # event carries its process incarnation — drop strays.
                continue
            w.missed = 0
            self.board.clear(w.idx)
            kind = evt["evt"]
            if kind == "online":
                w.kernel = evt["kernel"]
                for note in evt["warnings"]:
                    self._log(f"worker {w.idx}: {note}")
            elif kind == "slice":
                self.timers.count("serve_slices")
                for job_id, steps in evt["steps"].items():
                    job = self.queue.jobs.get(job_id)
                    if job is not None and job.state == "RUNNING":
                        self.queue.update(job_id, steps_done=int(steps),
                                          slices=job.slices + 1)
            elif kind in ("done", "preempted", "failed"):
                self._finish_assignment(w, evt)

    def _finish_assignment(self, w: _Worker, evt: dict) -> None:
        kind = evt["evt"]
        seconds = float(evt.get("seconds", 0.0))
        if kind != "failed":
            # What the dispatch paid for its prepared system
            # (observational: nothing reads these back).
            self.timers.add("serve_worker_prepare",
                            float(evt.get("prepare_seconds", 0.0)))
            self.timers.count("serve_prepare_hits" if evt.get("prepared_from_cache")
                              else "serve_prepare_misses")
        for job_id in evt["jobs"]:
            job = self.queue.jobs.get(job_id)
            if job is None or job.state != "RUNNING":
                continue
            steps = int(evt["steps"].get(job_id, job.steps_done))
            run_s = job.run_seconds + seconds
            if kind == "done":
                self.queue.transition(job_id, "DONE", steps_done=steps,
                                      run_seconds=run_s,
                                      finished_at=float(evt["wall"]))
                # Finished before the preempt landed: the cancel is moot.
                self._cancel_requested.discard(job_id)
            elif kind == "failed":
                self.queue.transition(job_id, "FAILED", steps_done=steps,
                                      run_seconds=run_s, error=evt["error"],
                                      finished_at=float(evt["wall"]))
                self._log(f"job {job_id} failed:\n{evt['error']}")
                self._cancel_requested.discard(job_id)
            else:  # preempted (scheduler or cancel request)
                self.queue.transition(job_id, "PREEMPTED", reason="preempt",
                                      steps_done=steps, run_seconds=run_s,
                                      preemptions=job.preemptions + 1)
                if job_id in self._cancel_requested:
                    # PREEMPTED -> PENDING -> CANCELLED, all journaled.
                    self.queue.transition(job_id, "PENDING", reason="cancel")
                    self.queue.transition(job_id, "CANCELLED")
                    self._cancel_requested.discard(job_id)
                else:
                    self.queue.transition(job_id, "PENDING", reason="preempt")
        w.assignment = None
        w.preempt_sent = False

    def _check_stalls(self) -> None:
        for w in self.workers:
            if not w.busy:
                continue
            w.missed += 1
            if w.missed == STALL_TICKS:
                # Observability only: flag it on the board; a live
                # process keeps its slot (it may be in a long slice).
                self.board.mark_stall(w.idx, waits=1)
                self._log(f"worker {w.idx} (pid {w.pid}) heartbeat stalled")

    # -- scheduling ---------------------------------------------------------

    def _schedule(self) -> None:
        free = sum(1 for w in self.workers if not w.busy)
        running = [w.assignment for w in self.workers if w.busy]
        decision = plan(self.queue.jobs, free, running,
                        max_batch=self.config.max_batch)
        for victim in decision.preempt:
            for w in self.workers:
                if w.assignment == victim:
                    if w.send_preempt():
                        self.timers.count("serve_preemptions")
                    break
        free_workers = [w for w in self.workers if not w.busy]
        for w, assignment in zip(free_workers, decision.assignments):
            self._dispatch(w, assignment)
            self.timers.count("serve_dispatches")

    # -- client protocol ----------------------------------------------------

    def _handle_request(self, req: dict) -> dict:
        """Serve one client request; never raises.

        The broad except is load-bearing: an exception escaping here
        would unwind ``tick()``/``serve_forever`` and take the whole
        multi-tenant service down over one bad request.
        """
        try:
            return self._dispatch_request(req)
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _dispatch_request(self, req: dict) -> dict:
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            try:
                spec = JobSpec.from_dict(req.get("spec", {}))
                job = self.queue.submit(spec)
            except (TypeError, ValueError, QueueError) as exc:
                # QueueError covers a resubmitted job name — a client
                # mistake, not a server fault.
                return {"ok": False, "error": str(exc)}
            return {"ok": True, "id": job.id, "arrival": job.arrival}
        if op == "jobs":
            return {"ok": True, "jobs": [self._job_view(j) for j in sorted(
                self.queue.jobs.values(), key=lambda j: j.arrival)]}
        if op == "status":
            job = self.queue.jobs.get(req.get("id", ""))
            if job is None:
                return {"ok": False, "error": f"unknown job {req.get('id')!r}"}
            return {"ok": True, "job": self._job_view(job)}
        if op == "cancel":
            return self._cancel(req.get("id", ""))
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics()}
        if op == "shutdown":
            self._shutdown = True
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _cancel(self, job_id: str) -> dict:
        job = self.queue.jobs.get(job_id)
        if job is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        if job.state in TERMINAL_STATES:
            return {"ok": False, "error": f"job {job_id} is already {job.state}"}
        if job.state in ("PENDING", "PREEMPTED"):
            if job.state == "PREEMPTED":
                self.queue.transition(job_id, "PENDING", reason="cancel")
            self.queue.transition(job_id, "CANCELLED")
            return {"ok": True, "state": "CANCELLED"}
        # RUNNING: preempt its assignment; the preempted event completes
        # the cancellation (other jobs in the batch simply requeue).
        self._cancel_requested.add(job_id)
        for w in self.workers:
            if w.assignment and job_id in w.assignment.jobs:
                w.send_preempt()
                break
        return {"ok": True, "state": "CANCELLING"}

    def _job_view(self, job) -> dict:
        spec = job.spec
        view = {
            "id": job.id, "state": job.state, "priority": spec.priority,
            "steps": spec.steps, "steps_done": job.steps_done,
            "arrival": job.arrival, "preemptions": job.preemptions,
            "recoveries": job.recoveries, "slices": job.slices,
            "seed": spec.seed, "waters": spec.waters,
            "artifact_dir": job.artifact_dir,
            "queue_wait_s": round(max(0.0, (job.started_at or time.time())
                                      - job.submitted_at), 3)
                            if job.submitted_at else 0.0,
            "run_seconds": round(job.run_seconds, 3),
        }
        if job.run_seconds > 0:
            view["steps_per_s"] = round(job.steps_done / job.run_seconds, 2)
        if job.error:
            view["error"] = job.error.splitlines()[-1]
        return view

    def metrics(self) -> dict:
        jobs = list(self.queue.jobs.values())
        by_state: dict[str, int] = {}
        for j in jobs:
            by_state[j.state] = by_state.get(j.state, 0) + 1
        run_s = sum(j.run_seconds for j in jobs)
        steps = sum(j.steps_done for j in jobs)
        wall = max(1e-9, time.time() - self.started_at)
        counts = dict(self.timers.counts)
        return {
            "jobs": by_state,
            "total_jobs": len(jobs),
            "steps_done": steps,
            "preemptions": sum(j.preemptions for j in jobs),
            "recoveries": sum(j.recoveries for j in jobs),
            "dispatches": counts.get("serve_dispatches", 0),
            "batched_resumes": counts.get("serve_batched_resumes", 0),
            "prepare_seconds": round(
                self.timers.elapsed.get("serve_worker_prepare", 0.0), 4),
            "prepare_hits": counts.get("serve_prepare_hits", 0),
            "prepare_misses": counts.get("serve_prepare_misses", 0),
            "slices": counts.get("serve_slices", 0),
            "wall_seconds": round(wall, 3),
            "busy_seconds": round(run_s, 3),
            "aggregate_steps_per_s": round(steps / wall, 2),
            "workers": [
                {"idx": w.idx, "pid": w.pid, "busy": w.busy,
                 "tier": w.kernel.get("tier", ""),
                 "threads": w.kernel.get("threads", 0), "kernel": w.kernel,
                 "stalled": w.idx in self.board.silent,
                 "jobs": list(w.assignment.jobs) if w.assignment else []}
                for w in self.workers
            ],
            "timers": {k: round(v, 4) for k, v in self.timers.elapsed.items()},
            "log": self._worker_log[-20:],
        }

    # -- socket plumbing ----------------------------------------------------

    def _poll_socket(self, timeout: float) -> None:
        """One bounded select pass: accept, read, write — never block.

        All client I/O is readiness-driven so a slow client costs the
        main loop nothing beyond its buffered bytes; connections that
        overstay :attr:`_Conn.TIMEOUT` are dropped.
        """
        for key, mask in self._sel.select(timeout):
            if key.fileobj is self._sock:
                try:
                    sock, _ = self._sock.accept()
                except OSError:
                    continue
                sock.setblocking(False)
                conn = _Conn(sock)
                self._conns.append(conn)
                self._sel.register(sock, selectors.EVENT_READ, conn)
            else:
                self._conn_io(key.data, mask)
        now = time.time()
        for conn in [c for c in self._conns if now > c.deadline]:
            self._close_conn(conn)

    def _conn_io(self, conn: _Conn, mask: int) -> None:
        try:
            if mask & selectors.EVENT_READ:
                chunk = conn.sock.recv(65536)
                if not chunk:  # client went away (or sent EOF early)
                    self._close_conn(conn)
                    return
                conn.inbuf += chunk
                if len(conn.inbuf) > _Conn.MAX_REQUEST:
                    self._close_conn(conn)
                    return
                if b"\n" in conn.inbuf:
                    self._respond(conn)
            if conn.outbuf and mask & selectors.EVENT_WRITE:
                self._flush_conn(conn)
        except BlockingIOError:
            pass
        except OSError:
            self._close_conn(conn)

    def _respond(self, conn: _Conn) -> None:
        raw, _, _ = conn.inbuf.partition(b"\n")
        if not raw.strip():
            self._close_conn(conn)
            return
        try:
            req = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            resp = {"ok": False, "error": f"bad request: {exc}"}
        else:
            resp = self._handle_request(req)
        conn.outbuf = (json.dumps(resp) + "\n").encode()
        self._flush_conn(conn)

    def _flush_conn(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close_conn(conn)
            return
        conn.outbuf = conn.outbuf[sent:]
        if not conn.outbuf:
            self._close_conn(conn)
        else:
            self._sel.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _close_conn(self, conn: _Conn) -> None:
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        if conn in self._conns:
            self._conns.remove(conn)

    # -- main loop ----------------------------------------------------------

    def _log(self, line: str) -> None:
        self._worker_log.append(line)
        print(f"[serve] {line}", flush=True)

    def tick(self) -> None:
        """One main-loop iteration (socket, events, reap, schedule)."""
        with self.timers.time("serve_tick"):
            with self.timers.time("serve_socket"):
                self._poll_socket(self.config.tick)
            with self.timers.time("serve_events"):
                self._drain_events()
                self._check_stalls()
                self._reap_dead()
            with self.timers.time("serve_schedule"):
                self._schedule()

    def serve_forever(self) -> None:
        try:
            while not self._shutdown:
                self.tick()
                if self.config.idle_exit > 0:
                    if self.queue.jobs and self.queue.all_terminal():
                        if self._idle_since is None:
                            self._idle_since = time.time()
                        elif time.time() - self._idle_since > self.config.idle_exit:
                            self._log("idle; exiting (--idle-exit)")
                            return
                    else:
                        self._idle_since = None
        finally:
            self.close()

    def close(self) -> None:
        for w in self.workers:
            if w.proc is not None and w.proc.is_alive():
                w.cmd_q.put({"cmd": "stop"})
        deadline = time.time() + 5.0
        for w in self.workers:
            if w.proc is not None:
                w.proc.join(timeout=max(0.1, deadline - time.time()))
                if w.proc.is_alive():
                    w.proc.terminate()
        for conn in list(self._conns):
            self._close_conn(conn)
        self._sel.close()
        self._sock.close()
        self.sock_path.unlink(missing_ok=True)
        self.queue.close()

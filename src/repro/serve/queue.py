"""Durable job queue: an append-only, CRC-framed event journal.

The queue is the service's single source of truth.  Every mutation —
submit, state transition, counter bump — is one appended record in
``queue.rrs`` using the run store's framing
(:mod:`repro.io.records`: RPR1 magic + CRC32 per record) and tagged
state serialization (:func:`repro.io.pack_state`), flushed and fsynced
before the mutation is acted on.  Restarting the server replays the
journal:

* a SIGKILL can tear at most the record being written — the replay
  scan keeps every intact event and drops the torn tail, exactly the
  trajectory-file contract;
* jobs that were RUNNING when the server died are *requeued*
  (``server-died`` transitions appended on reopen): their artifacts
  resume from the newest durable checkpoint, so no work is lost and —
  because trajectory/energy-log resume truncates past-checkpoint
  output — no work is duplicated;
* a requeue is two records (RUNNING -> PREEMPTED -> PENDING) but one
  logical transition: a journal that ends between them replays to
  PREEMPTED, and the reopen writes the missing PENDING half — no job
  is ever left in a state no scheduler pass will pick up;
* completed jobs stay completed; job ids are assigned from a persisted
  monotonic counter, so a restart can never reuse one.

All writes happen in the server process only; clients mutate through
the socket front end.  (Single-writer is what makes the plain
append-only file safe without locks.)
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.io.records import REC_HEADER, REC_STATE, scan_records, write_record
from repro.io.serialize import pack_state, unpack_state
from repro.serve.jobs import TERMINAL_STATES, Job, JobSpec

__all__ = ["JobQueue", "QueueError"]

_JOURNAL = "queue.rrs"


class QueueError(RuntimeError):
    """The journal is unusable (wrong kind, unreadable header)."""


class JobQueue:
    """Journal-backed job table with atomic, durable transitions."""

    def __init__(self, directory, sync: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _JOURNAL
        self.sync = bool(sync)
        self.jobs: dict[str, Job] = {}
        self._arrival = 0  # next submission index
        existing = self.path.exists()
        if existing:
            self._replay()
        # Reopen for appending *after* the replay determined the intact
        # prefix; a torn tail is overwritten by the next append.
        self._f = open(self.path, "r+b" if existing else "wb")
        if existing:
            self._f.seek(self._keep_end)
            self._f.truncate(self._keep_end)
        else:
            write_record(self._f, REC_HEADER,
                         pack_state({"kind": "jobqueue", "version": 1}))
            self._flush()
        # A dead server leaves jobs mid-run, or mid-requeue (PREEMPTED
        # journaled, its PENDING half not): finish both, journaled, so
        # a second restart replays the same decision.
        for job in self.jobs.values():
            if job.state == "RUNNING":
                self.requeue(job.id, reason="server-died")
            elif job.state == "PREEMPTED":
                self.transition(job.id, "PENDING", reason="server-died")

    # -- journal plumbing ---------------------------------------------------

    def _flush(self) -> None:
        self._f.flush()
        if self.sync:
            os.fsync(self._f.fileno())

    def _append(self, event: dict) -> None:
        write_record(self._f, REC_STATE, pack_state(event))
        self._flush()

    def _replay(self) -> None:
        self._keep_end = 0
        with open(self.path, "rb") as f:
            records = scan_records(f)
            try:
                offset, end, rtype, payload = next(records)
            except StopIteration:
                raise QueueError(f"{self.path}: empty or unreadable journal header")
            header = unpack_state(payload)
            if rtype != REC_HEADER or header.get("kind") != "jobqueue":
                raise QueueError(f"{self.path}: not a job-queue journal")
            self._keep_end = end
            for _offset, end, rtype, payload in records:
                if rtype != REC_STATE:
                    break
                self._apply(unpack_state(payload))
                self._keep_end = end

    def _apply(self, event: dict) -> None:
        """Apply one journal event to the in-memory table (replay path)."""
        kind = event.get("event")
        if kind == "submit":
            spec = JobSpec.from_dict(event["spec"])
            job = Job(
                id=event["id"], spec=spec, arrival=int(event["arrival"]),
                artifact_dir=event.get("artifact_dir", ""),
                submitted_at=float(event.get("wall", 0.0)),
            )
            self.jobs[job.id] = job
            self._arrival = max(self._arrival, job.arrival + 1)
        elif kind == "transition":
            job = self.jobs.get(event["id"])
            if job is None:
                return  # tolerate foreign tails; never crash a replay
            job.state = event["to"]
            for key, value in (event.get("fields") or {}).items():
                if hasattr(job, key):
                    setattr(job, key, value)
        elif kind == "update":
            job = self.jobs.get(event["id"])
            if job is None:
                return
            for key, value in (event.get("fields") or {}).items():
                if hasattr(job, key):
                    setattr(job, key, value)

    # -- mutations (all journaled) ------------------------------------------

    def submit(self, spec: JobSpec, artifact_dir: str = "") -> Job:
        arrival = self._arrival
        self._arrival += 1
        job_id = spec.name or f"job-{arrival:04d}"
        if job_id in self.jobs:
            raise QueueError(f"job id {job_id!r} already exists")
        job = Job(id=job_id, spec=spec, arrival=arrival,
                  artifact_dir=artifact_dir, submitted_at=time.time())
        self._append({"event": "submit", "id": job.id, "arrival": arrival,
                      "spec": spec.to_dict(), "artifact_dir": artifact_dir,
                      "wall": job.submitted_at})
        self.jobs[job.id] = job
        return job

    def transition(self, job_id: str, to: str, reason: str = "", **fields) -> Job:
        """Validate, journal, then apply one state transition.

        ``fields`` are counter/bookkeeping updates carried with the
        transition (``steps_done``, ``preemptions``, …) so a replay
        reconstructs them too.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        # Validate before journaling: the journal only ever records
        # legal transitions, so a replay can apply them unchecked.
        probe = Job(id=job.id, spec=job.spec, state=job.state)
        probe.transition(to)
        event = {"event": "transition", "id": job_id, "to": to}
        if reason:
            event["reason"] = reason
        if fields:
            event["fields"] = dict(fields)
        self._append(event)
        job.state = to
        for key, value in fields.items():
            if hasattr(job, key):
                setattr(job, key, value)
        return job

    def update(self, job_id: str, **fields) -> Job:
        """Journal a field-only update (progress counters, wall times).

        No state change — this is how slice progress lands durably
        while a job stays RUNNING (the state machine has no
        RUNNING -> RUNNING edge, deliberately).
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        self._append({"event": "update", "id": job_id, "fields": dict(fields)})
        for key, value in fields.items():
            if hasattr(job, key):
                setattr(job, key, value)
        return job

    def requeue(self, job_id: str, reason: str) -> Job:
        """RUNNING -> PREEMPTED -> PENDING with the right counter bump."""
        job = self.jobs[job_id]
        counter = "preemptions" if reason == "preempt" else "recoveries"
        self.transition(job_id, "PREEMPTED", reason=reason,
                        **{counter: getattr(job, counter) + 1})
        return self.transition(job_id, "PENDING", reason=reason)

    # -- views --------------------------------------------------------------

    def all_terminal(self) -> bool:
        return all(j.state in TERMINAL_STATES for j in self.jobs.values())

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

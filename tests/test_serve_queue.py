"""Unit tests for the durable job queue journal."""

import pytest

from repro.serve.jobs import InvalidTransition, JobSpec
from repro.serve.queue import JobQueue, QueueError


def submit_one(q, **kw):
    return q.submit(JobSpec(waters=8, steps=10, record_every=5,
                            checkpoint_every=5, **kw))


class TestSubmit:
    def test_ids_are_monotonic(self, tmp_path):
        with JobQueue(tmp_path) as q:
            a, b = submit_one(q), submit_one(q)
        assert (a.id, b.id) == ("job-0000", "job-0001")
        assert a.arrival < b.arrival

    def test_named_submission(self, tmp_path):
        with JobQueue(tmp_path) as q:
            job = submit_one(q, name="relax")
            assert job.id == "relax"

    def test_duplicate_id_rejected(self, tmp_path):
        with JobQueue(tmp_path) as q:
            submit_one(q, name="x")
            with pytest.raises(QueueError, match="already exists"):
                submit_one(q, name="x")


class TestReplay:
    def test_full_state_survives_reopen(self, tmp_path):
        with JobQueue(tmp_path) as q:
            a = submit_one(q, seed=1)
            b = submit_one(q, seed=2, name="named")
            q.transition(a.id, "RUNNING", artifact_dir="jobs/a")
            q.update(a.id, steps_done=5, slices=1)
            q.transition(a.id, "DONE", steps_done=10)
            q.transition(b.id, "CANCELLED")
        with JobQueue(tmp_path) as q:
            ra, rb = q.jobs[a.id], q.jobs["named"]
            assert (ra.state, ra.steps_done, ra.slices) == ("DONE", 10, 1)
            assert ra.artifact_dir == "jobs/a"
            assert ra.spec == a.spec
            assert rb.state == "CANCELLED"

    def test_arrival_counter_never_reuses_ids(self, tmp_path):
        with JobQueue(tmp_path) as q:
            submit_one(q)
        with JobQueue(tmp_path) as q:
            newer = submit_one(q)
        assert newer.id == "job-0001"

    def test_running_jobs_requeued_on_reopen(self, tmp_path):
        # Server died (SIGKILL) with a job mid-run: the restart must
        # requeue it, bump recoveries, and journal that decision.
        with JobQueue(tmp_path) as q:
            job = submit_one(q)
            q.transition(job.id, "RUNNING", steps_done=5)
        with JobQueue(tmp_path) as q:
            r = q.jobs[job.id]
            assert (r.state, r.recoveries, r.steps_done) == ("PENDING", 1, 5)
        # ... and a second replay applies the journaled requeue, not a fresh one.
        with JobQueue(tmp_path) as q:
            r = q.jobs[job.id]
            assert (r.state, r.recoveries) == ("PENDING", 1)

    def test_torn_tail_dropped(self, tmp_path):
        with JobQueue(tmp_path) as q:
            a = submit_one(q)
            q.transition(a.id, "RUNNING")
            q.transition(a.id, "DONE", steps_done=10)
        path = tmp_path / "queue.rrs"
        path.write_bytes(path.read_bytes()[:-7])  # SIGKILL mid-append
        with JobQueue(tmp_path) as q:
            # The torn DONE record is gone; the intact RUNNING state
            # replays and is requeued as a recovery.
            r = q.jobs[a.id]
            assert (r.state, r.recoveries) == ("PENDING", 1)
            # The journal is writable again after the truncation.
            q.transition(a.id, "RUNNING")
            q.transition(a.id, "DONE")
        with JobQueue(tmp_path) as q:
            assert q.jobs[a.id].state == "DONE"

    def test_requeue_torn_after_preempted_record_completes(self, tmp_path):
        # A requeue is two fsynced records; a server SIGKILL between
        # them leaves PREEMPTED as the job's last word.  Nothing
        # schedules a PREEMPTED job, so the reopen must finish the
        # transition — and journal it.
        from repro.io.records import scan_records

        with JobQueue(tmp_path) as q:
            job = submit_one(q)
            q.transition(job.id, "RUNNING")
            q.update(job.id, steps_done=5)
            q.requeue(job.id, reason="worker-died")
        path = tmp_path / "queue.rrs"
        with open(path, "rb") as f:
            ends = [end for _o, end, _t, _p in scan_records(f)]
        path.write_bytes(path.read_bytes()[:ends[-2]])  # ... PREEMPTED | PENDING
        with JobQueue(tmp_path) as q:
            r = q.jobs[job.id]
            assert (r.state, r.recoveries, r.steps_done) == ("PENDING", 1, 5)
            assert q.pending() == [r]
        with open(path, "rb") as f:  # the missing half is on disk now
            assert len(list(scan_records(f))) == len(ends)
        with JobQueue(tmp_path) as q:
            assert (q.jobs[job.id].state, q.jobs[job.id].recoveries) == ("PENDING", 1)

    def test_rejects_foreign_journal(self, tmp_path):
        (tmp_path / "queue.rrs").write_bytes(b"not a journal at all")
        with pytest.raises(QueueError):
            JobQueue(tmp_path)


class TestTransitions:
    def test_illegal_transition_not_journaled(self, tmp_path):
        with JobQueue(tmp_path) as q:
            job = submit_one(q)
            with pytest.raises(InvalidTransition):
                q.transition(job.id, "DONE")
            assert q.jobs[job.id].state == "PENDING"
        with JobQueue(tmp_path) as q:
            assert q.jobs[job.id].state == "PENDING"

    def test_unknown_job_rejected(self, tmp_path):
        with JobQueue(tmp_path) as q:
            with pytest.raises(KeyError):
                q.transition("ghost", "RUNNING")

    def test_requeue_counters(self, tmp_path):
        with JobQueue(tmp_path) as q:
            job = submit_one(q)
            q.transition(job.id, "RUNNING")
            q.requeue(job.id, reason="preempt")
            assert (q.jobs[job.id].state, q.jobs[job.id].preemptions) == ("PENDING", 1)
            q.transition(job.id, "RUNNING")
            q.requeue(job.id, reason="worker-died")
            assert q.jobs[job.id].recoveries == 1

    def test_update_persists_without_state_change(self, tmp_path):
        with JobQueue(tmp_path) as q:
            job = submit_one(q)
            q.transition(job.id, "RUNNING")
            q.update(job.id, steps_done=5)
            assert q.jobs[job.id].state == "RUNNING"
        with JobQueue(tmp_path) as q:
            assert q.jobs[job.id].steps_done == 5

    def test_views(self, tmp_path):
        with JobQueue(tmp_path) as q:
            a, b = submit_one(q), submit_one(q)
            q.transition(a.id, "RUNNING")
            assert {j.id for j in q.pending()} == {b.id}
            assert {j.id for j in q.active()} == {a.id, b.id}
            assert not q.all_terminal()
            q.transition(a.id, "DONE")
            q.transition(b.id, "CANCELLED")
            assert q.all_terminal()

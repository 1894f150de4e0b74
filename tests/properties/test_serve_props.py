"""Property-based tests of scheduler determinism.

The serve scheduler's contract is that it is a *pure function* of the
submission log: the same queue contents, priorities, and arrival order
always yield the identical slice schedule.  (That purity is what lets
the durable journal be the only persisted state — a restarted server
re-derives the same decisions.)  The properties below drive the real
:func:`~repro.serve.scheduler.plan` through the synthetic replay clock
and pin replay identity, conservation of work, and priority sanity on
random submission logs.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import scan_records
from repro.serve.jobs import TERMINAL_STATES, JobSpec
from repro.serve.queue import JobQueue
from repro.serve.scheduler import simulate_schedule

# A random submission log: up to 8 jobs, arrival ticks 0-5,
# priorities 0-3, each needing 1-4 slices.
submission_logs = st.lists(
    st.tuples(
        st.integers(0, 5),  # arrival tick
        st.integers(0, 3),  # priority
        st.integers(1, 4),  # slices of work
    ),
    min_size=1,
    max_size=8,
).map(lambda rows: [(t, f"job-{i}", p, s) for i, (t, p, s) in enumerate(rows)])

worker_counts = st.integers(1, 3)


@given(log=submission_logs, workers=worker_counts, data=st.data())
@settings(max_examples=60, deadline=None)
def test_replay_identity(log, workers, data):
    """Same submission log -> byte-for-byte identical slice schedule."""
    # Optionally group a random subset of jobs into one batch family.
    grouped = data.draw(st.booleans())
    group_of = {job_id: "fam" for _, job_id, _, _ in log} if grouped else None
    first = simulate_schedule(log, workers, group_of=group_of)
    second = simulate_schedule(log, workers, group_of=group_of)
    assert first == second


@given(log=submission_logs, workers=worker_counts)
@settings(max_examples=60, deadline=None)
def test_work_is_conserved(log, workers):
    """Every job receives exactly its requested slices — no loss, no
    duplication — regardless of preemptions along the way."""
    schedule = simulate_schedule(log, workers)
    executed: dict[str, int] = {}
    for _tick, _worker, jobs in schedule:
        for job_id in jobs:
            executed[job_id] = executed.get(job_id, 0) + 1
    assert executed == {job_id: slices for _, job_id, _, slices in log}


@given(log=submission_logs, workers=worker_counts, max_batch=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_batches_re_form_on_one_clock(log, workers, max_batch):
    """One batch family, preemptions included: every job still gets
    exactly its slices, and the jobs sharing a slice always share their
    progress — a preempted batch re-forms, mixed progress never fuses."""
    group_of = {job_id: "fam" for _, job_id, _, _ in log}
    schedule = simulate_schedule(log, workers, max_batch=max_batch, group_of=group_of)
    executed = {job_id: 0 for _, job_id, _, _ in log}
    for _tick, _worker, jobs in schedule:
        assert len(jobs) <= max_batch
        assert len({executed[job_id] for job_id in jobs}) <= 1
        for job_id in jobs:
            executed[job_id] += 1
    assert executed == {job_id: slices for _, job_id, _, slices in log}


@given(log=submission_logs, workers=worker_counts)
@settings(max_examples=60, deadline=None)
def test_no_worker_double_booked(log, workers):
    """At any tick each worker executes at most one assignment."""
    schedule = simulate_schedule(log, workers)
    seen = set()
    for tick, worker, _jobs in schedule:
        assert (tick, worker) not in seen
        seen.add((tick, worker))
        assert 0 <= worker < workers


@given(log=submission_logs)
@settings(max_examples=60, deadline=None)
def test_strictly_higher_priority_finishes_first_on_one_worker(log):
    """With one worker and preemption, a job strictly higher-priority
    than every other job, arriving at tick 0, finishes before any
    lower-priority job gets a slice *after* its arrival... i.e. it is
    never made to wait behind lower-priority work."""
    top = max(p for _, _, p, _ in log)
    highs = [j for j in log if j[2] == top and j[0] == 0]
    if not highs or len([j for j in log if j[2] == top]) > 1:
        return  # need a unique top-priority job arriving at 0
    hi_id = highs[0][1]
    schedule = simulate_schedule(log, workers=1)
    hi_ticks = [t for t, _, jobs in schedule if hi_id in jobs]
    other_ticks = [t for t, _, jobs in schedule if jobs and hi_id not in jobs]
    if hi_ticks and other_ticks:
        assert max(hi_ticks) < min(t for t in other_ticks if t >= hi_ticks[0]) \
            or all(t < hi_ticks[0] for t in other_ticks)


# -- journal: every prefix replays to a schedulable table --------------------

#: One scripted server action: (what, which job).  A job is submitted
#: the first time the script names it.
journal_scripts = st.lists(
    st.tuples(
        st.sampled_from(["dispatch", "dispatch", "slice", "preempt", "worker-died",
                         "done", "failed", "cancel"]),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=24,
)


def _play(queue: JobQueue, script) -> None:
    """Drive the queue the way the server does, skipping illegal moves."""
    for what, k in script:
        job = queue.jobs.get(f"j{k}")
        if job is None:
            job = queue.submit(JobSpec(waters=8, steps=10, record_every=5,
                                       checkpoint_every=5, name=f"j{k}"))
        if what == "dispatch" and job.state == "PENDING":
            queue.transition(job.id, "RUNNING", reason="assign")
        elif what == "cancel" and job.state == "PENDING":
            queue.transition(job.id, "CANCELLED")
        elif job.state != "RUNNING":
            continue
        elif what == "slice":
            queue.update(job.id, steps_done=job.steps_done + 5, slices=job.slices + 1)
        elif what == "preempt":
            queue.requeue(job.id, reason="preempt")
        elif what == "worker-died":
            queue.requeue(job.id, reason="worker-died")
        elif what == "done":
            queue.transition(job.id, "DONE", steps_done=10)
        elif what == "failed":
            queue.transition(job.id, "FAILED", error="boom")


@given(script=journal_scripts)
@settings(max_examples=60, deadline=None)
def test_every_journal_prefix_replays_schedulable(script):
    """Cut the journal after *every* record (a server SIGKILL between
    any two fsyncs): the reopen leaves no non-terminal job outside
    PENDING — nothing RUNNING without a worker, nothing stranded in
    PREEMPTED — and a second reopen replays the same table."""
    with tempfile.TemporaryDirectory() as tmp:
        full = Path(tmp) / "full"
        with JobQueue(full, sync=False) as queue:
            _play(queue, script)
        blob = (full / "queue.rrs").read_bytes()
        with open(full / "queue.rrs", "rb") as f:
            ends = [end for _o, end, _t, _p in scan_records(f)]
        for n, end in enumerate(ends):
            cut = Path(tmp) / f"cut{n}"
            cut.mkdir()
            (cut / "queue.rrs").write_bytes(blob[:end])
            with JobQueue(cut, sync=False) as queue:
                first = {j.id: (j.state, j.steps_done, j.preemptions, j.recoveries)
                         for j in queue.jobs.values()}
            for state, *_ in first.values():
                assert state == "PENDING" or state in TERMINAL_STATES
            with JobQueue(cut, sync=False) as queue:
                again = {j.id: (j.state, j.steps_done, j.preemptions, j.recoveries)
                         for j in queue.jobs.values()}
            assert again == first

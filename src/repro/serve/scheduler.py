"""Preemptible priority scheduler with same-fingerprint batching.

The scheduler is deliberately a set of **pure functions** over the job
table: given the same queue contents (states, priorities, arrival
order, progress) it always produces the same decisions.  That purity
is load-bearing twice over —

* it is what the hypothesis property test pins: replaying a submission
  log yields the identical slice schedule, every time;
* it is what makes the durable queue sufficient for crash recovery:
  the server never persists scheduler state, because the schedule is a
  function of the journal.

Policy
------
* **Ordering**: higher ``priority`` first, FIFO (submission order)
  within a priority.
* **Batching**: the head pending job pulls every pending job with the
  same :meth:`JobSpec.group_key` (same static system, parameters, step
  count, cadences, priority) *and the same* ``steps_done`` into one
  assignment, up to ``max_batch``; the worker runs the batch as one
  :class:`~repro.ensemble.EnsembleSimulation` pass.  One rule covers
  new and resumed work: a new job is simply one at step 0, and a
  preempted batch — every lane checkpointed at the same slice
  boundary — comes back with equal progress and re-forms as a batch.
  Jobs whose progress differs never share a pass (the engine has one
  clock).  ``steps_done`` is the journal's view; if a lane's newest
  valid checkpoint turns out older than that, the worker reports each
  lane's true step and the next ``plan`` regroups them.  Batching is
  bitwise-invisible, so all of this changes throughput only.
* **Preemption**: when every worker is busy and a pending job's
  priority strictly exceeds a running assignment's, the
  lowest-priority (latest-arrival on ties) assignment is preempted.
  The victim checkpoints at its next slice boundary and requeues as
  PREEMPTED -> PENDING; because slices end exactly at checkpoint
  cadence, resume is bit-exact by construction.  Strict improvement
  only, so equal priorities never preempt each other (no livelock).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.jobs import Job

__all__ = [
    "Assignment",
    "Plan",
    "order_key",
    "pending_order",
    "make_assignment",
    "plan",
    "simulate_schedule",
]


def _default_group_key(job: Job):
    return job.spec.group_key()


@dataclass(frozen=True)
class Assignment:
    """One unit of worker work: a batch of 1+ batch-compatible jobs."""

    jobs: tuple[str, ...]
    priority: int
    #: Earliest arrival in the batch — the FIFO identity of the slot.
    arrival: int


@dataclass
class Plan:
    """One scheduling decision: what to start, what to preempt."""

    assignments: list[Assignment] = field(default_factory=list)
    #: Running assignments to preempt (checkpoint + requeue).
    preempt: list[Assignment] = field(default_factory=list)


def order_key(job: Job) -> tuple[int, int]:
    """Sort key: highest priority first, then submission order."""
    return (-job.spec.priority, job.arrival)


def pending_order(jobs: dict[str, Job]) -> list[Job]:
    """PENDING jobs in dispatch order (pure; input dict order ignored)."""
    return sorted((j for j in jobs.values() if j.state == "PENDING"), key=order_key)


def make_assignment(
    head: Job, candidates: list[Job], max_batch: int, group_key=_default_group_key
) -> Assignment:
    """The assignment the head pending job leads.

    The head absorbs up to ``max_batch - 1`` other candidates with its
    group key and its ``steps_done``, merged in arrival order.
    """
    batch = [head]
    if max_batch > 1:
        key = group_key(head)
        mates = sorted(
            (
                j for j in candidates
                if j.id != head.id and j.steps_done == head.steps_done
                and group_key(j) == key
            ),
            key=order_key,
        )
        batch += mates[: max_batch - 1]
        batch.sort(key=lambda j: j.arrival)
    return Assignment(
        jobs=tuple(j.id for j in batch),
        priority=head.spec.priority,
        arrival=min(j.arrival for j in batch),
    )


def plan(
    jobs: dict[str, Job],
    free_workers: int,
    running: list[Assignment],
    max_batch: int = 8,
    group_key=_default_group_key,
) -> Plan:
    """Pure scheduling step.

    Fills free workers with assignments in dispatch order; then, if
    higher-priority work is still pending, marks the lowest-priority
    running assignments for preemption — one victim per waiting head,
    strict priority improvement only.  A preemption only vacates the
    slot; the waiting job is dispatched by a later ``plan`` call once
    the victim has checkpointed and requeued.
    """
    out = Plan()
    taken: set[str] = set()
    pending = pending_order(jobs)

    def heads():
        for job in pending:
            if job.id not in taken:
                yield job

    for _ in range(max(0, int(free_workers))):
        head = next(heads(), None)
        if head is None:
            break
        a = make_assignment(
            head, [j for j in pending if j.id not in taken], max_batch, group_key
        )
        taken.update(a.jobs)
        out.assignments.append(a)

    victims = sorted(running, key=lambda a: (a.priority, -a.arrival))
    for head in heads():
        if not victims:
            break
        weakest = victims[0]
        if head.spec.priority <= weakest.priority:
            break
        out.preempt.append(victims.pop(0))
        taken.add(head.id)
    return out


# -- deterministic replay (the property-test surface) -----------------------


def simulate_schedule(
    submissions: list[tuple[int, str, int, int]],
    workers: int,
    max_batch: int = 8,
    group_of: dict[str, object] | None = None,
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Replay a submission log into its slice schedule (pure function).

    ``submissions`` is a list of ``(arrival_tick, job_id, priority,
    slices)`` — each job needs ``slices`` worker slices to finish.
    ``group_of`` optionally maps job ids to batching keys (default:
    every job solo).  Returns the ordered list of
    ``(tick, worker, jobs_tuple)`` slice executions.

    This drives the *real* :func:`plan` on a synthetic clock — each
    busy worker completes one slice per tick — so the property test
    exercises the production decision logic, not a reimplementation.
    """
    from repro.serve.jobs import JobSpec

    if len({s[1] for s in submissions}) != len(submissions):
        raise ValueError("duplicate job ids in submission log")
    groups = group_of or {}

    def group_key(job: Job):
        return groups.get(job.id, ("solo", job.id))

    table: dict[str, Job] = {}
    slices_left: dict[str, int] = {}
    running: dict[int, Assignment] = {}
    schedule: list[tuple[int, int, tuple[str, ...]]] = []
    max_tick = max((t for t, *_ in submissions), default=0)

    for tick in range(10_000):
        for arrive, job_id, priority, slices in submissions:
            if arrive == tick:
                spec = JobSpec(steps=int(slices), priority=int(priority),
                               record_every=1, checkpoint_every=1, name=job_id)
                table[job_id] = Job(id=job_id, spec=spec, arrival=len(table))
                slices_left[job_id] = int(slices)

        free = workers - len(running)
        decision = plan(table, free, list(running.values()),
                        max_batch=max_batch, group_key=group_key)
        for victim in decision.preempt:
            worker = next(w for w, a in running.items() if a == victim)
            del running[worker]
            for job_id in victim.jobs:
                if slices_left[job_id] > 0:
                    table[job_id].state = "PENDING"
                    table[job_id].preemptions += 1
        free_ids = [w for w in range(workers) if w not in running]
        for worker, a in zip(free_ids, decision.assignments):
            running[worker] = a
            for job_id in a.jobs:
                table[job_id].state = "RUNNING"

        for worker in sorted(running):
            a = running[worker]
            live = tuple(j for j in a.jobs if slices_left[j] > 0)
            schedule.append((tick, worker, live))
            for job_id in live:
                slices_left[job_id] -= 1
                job = table[job_id]
                job.steps_done = job.spec.steps - slices_left[job_id]
                if slices_left[job_id] == 0:
                    job.state = "DONE"
        for worker in [w for w, a in running.items()
                       if all(slices_left[j] == 0 for j in a.jobs)]:
            del running[worker]

        if (not running and tick >= max_tick
                and not any(j.state == "PENDING" for j in table.values())):
            return schedule
    raise RuntimeError("simulate_schedule did not converge")

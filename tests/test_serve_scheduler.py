"""Unit tests for the pure priority + batching scheduler."""

from repro.serve.jobs import Job, JobSpec
from repro.serve.scheduler import (
    Assignment,
    make_assignment,
    pending_order,
    plan,
    simulate_schedule,
)


def job(id, priority=0, arrival=0, steps_done=0, waters=8, state="PENDING"):
    spec = JobSpec(waters=waters, steps=10, record_every=5, checkpoint_every=5,
                   priority=priority, name=id)
    j = Job(id=id, spec=spec, arrival=arrival, steps_done=steps_done)
    j.state = state
    return j


def table(*jobs):
    return {j.id: j for j in jobs}


class TestOrdering:
    def test_priority_then_fifo(self):
        jobs = table(job("a", priority=0, arrival=0),
                     job("b", priority=2, arrival=1),
                     job("c", priority=2, arrival=2))
        assert [j.id for j in pending_order(jobs)] == ["b", "c", "a"]

    def test_only_pending_considered(self):
        jobs = table(job("a"), job("b", state="RUNNING"), job("c", state="DONE"))
        assert [j.id for j in pending_order(jobs)] == ["a"]

    def test_dict_order_is_irrelevant(self):
        a, b = job("a", arrival=0), job("b", arrival=1)
        assert pending_order({"b": b, "a": a}) == pending_order({"a": a, "b": b})


class TestBatching:
    def test_same_group_fresh_jobs_fuse(self):
        jobs = [job("a", arrival=0), job("b", arrival=1), job("c", arrival=2)]
        a = make_assignment(jobs[0], jobs, max_batch=8)
        assert a.jobs == ("a", "b", "c")

    def test_batch_capped_and_in_arrival_order(self):
        jobs = [job(f"j{i}", arrival=i) for i in range(5)]
        a = make_assignment(jobs[0], jobs, max_batch=3)
        assert a.jobs == ("j0", "j1", "j2")

    def test_different_system_never_fuses(self):
        a, b = job("a", waters=8), job("b", waters=16, arrival=1)
        assert make_assignment(a, [a, b], max_batch=8).jobs == ("a",)

    def test_different_priority_never_fuses(self):
        a, b = job("a", priority=1), job("b", priority=0, arrival=1)
        assert make_assignment(a, [a, b], max_batch=8).jobs == ("a",)

    def test_resumed_job_runs_solo(self):
        """A job batches with its group *at its step*: a lone resumed
        job has no such mate and dispatches singly."""
        a = job("a", steps_done=5)
        b = job("b", arrival=1)
        assert make_assignment(a, [a, b], max_batch=8).jobs == ("a",)
        # ... and a head at step 0 does not absorb a resumed candidate.
        assert make_assignment(b, [a, b], max_batch=8).jobs == ("b",)

    def test_equal_progress_jobs_fuse(self):
        jobs = [job("a", steps_done=5), job("b", arrival=1, steps_done=5),
                job("c", arrival=2)]
        assert make_assignment(jobs[0], jobs, max_batch=8).jobs == ("a", "b")
        assert make_assignment(jobs[2], jobs, max_batch=8).jobs == ("c",)

    def test_unequal_progress_never_fuses(self):
        a, b = job("a", steps_done=5), job("b", arrival=1, steps_done=10)
        assert make_assignment(a, [a, b], max_batch=8).jobs == ("a",)
        assert make_assignment(b, [a, b], max_batch=8).jobs == ("b",)

    def test_equal_progress_different_key_never_fuses(self):
        a = job("a", steps_done=5)
        b = job("b", arrival=1, steps_done=5, waters=16)
        c = job("c", arrival=2, steps_done=5, priority=1)
        assert make_assignment(a, [a, b, c], max_batch=8).jobs == ("a",)

    def test_max_batch_caps_resumed_batches_too(self):
        jobs = [job(f"j{i}", arrival=i, steps_done=5) for i in range(5)]
        assert make_assignment(jobs[0], jobs, max_batch=3).jobs == ("j0", "j1", "j2")
        assert make_assignment(jobs[0], jobs, max_batch=1).jobs == ("j0",)


class TestPlan:
    def test_fills_free_workers(self):
        jobs = table(job("a", waters=8), job("b", waters=16, arrival=1),
                     job("c", waters=24, arrival=2))
        decision = plan(jobs, free_workers=2, running=[])
        assert [a.jobs for a in decision.assignments] == [("a",), ("b",)]
        assert decision.preempt == []

    def test_batch_consumes_group_in_one_slot(self):
        jobs = table(job("a"), job("b", arrival=1), job("c", waters=16, arrival=2))
        decision = plan(jobs, free_workers=2, running=[])
        assert [a.jobs for a in decision.assignments] == [("a", "b"), ("c",)]

    def test_no_pending_no_work(self):
        assert plan({}, free_workers=2, running=[]).assignments == []

    def test_preempts_weakest_on_strict_improvement(self):
        running = [Assignment(jobs=("lo",), priority=0, arrival=0),
                   Assignment(jobs=("mid",), priority=1, arrival=1)]
        jobs = table(job("lo", state="RUNNING"), job("mid", priority=1, state="RUNNING"),
                     job("hi", priority=2, arrival=2))
        decision = plan(jobs, free_workers=0, running=running)
        assert decision.preempt == [running[0]]
        assert decision.assignments == []  # dispatch happens next round

    def test_equal_priority_never_preempts(self):
        running = [Assignment(jobs=("a",), priority=1, arrival=0)]
        jobs = table(job("a", priority=1, state="RUNNING"),
                     job("b", priority=1, arrival=1))
        assert plan(jobs, free_workers=0, running=running).preempt == []

    def test_one_victim_per_waiting_head(self):
        running = [Assignment(jobs=("a",), priority=0, arrival=0),
                   Assignment(jobs=("b",), priority=0, arrival=1)]
        jobs = table(job("a", state="RUNNING"), job("b", state="RUNNING"),
                     job("hi", priority=5, arrival=2))
        decision = plan(jobs, free_workers=0, running=running)
        # One high-priority head preempts exactly one (latest-arrival) victim.
        assert decision.preempt == [running[1]]

    def test_pure_function(self):
        jobs = table(job("a"), job("b", priority=1, arrival=1))
        one = plan(jobs, 1, [])
        two = plan(jobs, 1, [])
        assert one.assignments == two.assignments


class TestSimulateSchedule:
    def test_fifo_single_worker(self):
        log = [(0, "a", 0, 2), (0, "b", 0, 1)]
        sched = simulate_schedule(log, workers=1)
        assert sched == [(0, 0, ("a",)), (1, 0, ("a",)), (2, 0, ("b",))]

    def test_priority_preempts(self):
        log = [(0, "lo", 0, 3), (1, "hi", 5, 1)]
        sched = simulate_schedule(log, workers=1)
        ran = [jobs for _, _, jobs in sched]
        # lo starts, hi preempts and runs, lo finishes afterwards.
        assert ran[0] == ("lo",)
        assert ("hi",) in ran
        assert ran.index(("hi",)) < max(i for i, r in enumerate(ran) if r == ("lo",))

    def test_batching_by_group(self):
        log = [(0, "a", 0, 1), (0, "b", 0, 1)]
        grouped = simulate_schedule(log, workers=1, group_of={"a": "g", "b": "g"})
        assert grouped == [(0, 0, ("a", "b"))]
        solo = simulate_schedule(log, workers=1)
        assert len(solo) == 2

    def test_preempted_batch_re_forms(self):
        # A two-slice batch is preempted after its first slice by a
        # higher-priority arrival (tick 1 vacates the slot, tick 2 runs
        # it); both lanes come back at step 1 and run their second
        # slice together, not one after the other.
        log = [(0, "a", 0, 2), (0, "b", 0, 2), (1, "hi", 5, 1)]
        sched = simulate_schedule(log, workers=1, group_of={"a": "g", "b": "g"})
        assert sched == [(0, 0, ("a", "b")), (2, 0, ("hi",)), (3, 0, ("a", "b"))]

    def test_duplicate_ids_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="duplicate"):
            simulate_schedule([(0, "a", 0, 1), (1, "a", 0, 1)], workers=1)

    def test_replay_is_deterministic(self):
        log = [(0, "a", 0, 2), (0, "b", 1, 2), (1, "c", 2, 1), (2, "d", 0, 1)]
        assert simulate_schedule(log, workers=2) == simulate_schedule(log, workers=2)

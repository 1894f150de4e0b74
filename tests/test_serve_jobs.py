"""Unit tests for the serve job model and state machine."""

import pytest

from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    Job,
    JobSpec,
)


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(waters=8, steps=20, seed=7, priority=3, name="x")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({"steps": 5, "bogus": 1})
        assert spec.steps == 5

    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError, match="unsupported"):
            JobSpec(system="argon")

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="steps"):
            JobSpec(steps=0)

    def test_slice_must_align_with_record_cadence(self):
        # Energy records are cadenced per run() call: a slice boundary
        # off the record cadence would change the log bytes.
        with pytest.raises(ValueError, match="multiple"):
            JobSpec(steps=20, record_every=4, checkpoint_every=6)
        JobSpec(steps=20, record_every=4, checkpoint_every=8)  # fine

    def test_derived_cadences(self):
        spec = JobSpec(steps=20, record_every=5)
        assert spec.effective_trajectory_every == 5
        assert spec.slice_steps == 20  # no checkpoints: one slice
        sliced = JobSpec(steps=20, record_every=5, checkpoint_every=10,
                         trajectory_every=5)
        assert sliced.slice_steps == 10

    def test_group_key_ignores_seed_and_name(self):
        a = JobSpec(waters=8, steps=10, seed=1, name="a")
        b = JobSpec(waters=8, steps=10, seed=2, name="b")
        assert a.group_key() == b.group_key()

    def test_group_key_separates_priority_and_params(self):
        base = JobSpec(waters=8, steps=10)
        assert base.group_key() != JobSpec(waters=8, steps=10, priority=1).group_key()
        assert base.group_key() != JobSpec(waters=16, steps=10).group_key()
        assert base.group_key() != JobSpec(waters=8, steps=11).group_key()

    def test_prepare_key_is_what_preparation_reads(self):
        base = JobSpec(waters=8, steps=10)
        # Everything that makes a job *this run* leaves the key alone...
        same = JobSpec(waters=8, steps=40, seed=7, name="x", priority=3,
                       record_every=5, trajectory_every=5, checkpoint_every=20,
                       dt=0.5, temperature=250.0, retain=2)
        assert base.prepare_key() == same.prepare_key()
        # ... and everything prepare_job_system reads separates it.
        assert base.prepare_key() != JobSpec(waters=16, steps=10).prepare_key()
        assert base.prepare_key() != JobSpec(waters=8, steps=10, build_seed=1).prepare_key()
        assert base.prepare_key() != JobSpec(waters=8, steps=10, cutoff=4.0).prepare_key()

    def test_preparation_sizes_the_mesh_from_the_box(self):
        """A job past ~64 waters prepares (16^3 refused it); a small one
        keeps 16^3 — the mesh is a function of what prepare_key() holds."""
        from repro.serve.jobs import prepare_job_system

        _system, params = prepare_job_system(JobSpec(waters=100, steps=1))
        assert params.mesh == (32, 32, 32)
        _system, params = prepare_job_system(JobSpec(waters=8, steps=1))
        assert params.mesh == (16, 16, 16)


class TestJobStateMachine:
    def test_every_state_has_rules(self):
        assert set(VALID_TRANSITIONS) == set(JOB_STATES)

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert VALID_TRANSITIONS[state] == set()

    def test_happy_path(self):
        job = Job(id="j", spec=JobSpec())
        job.transition("RUNNING")
        job.transition("DONE")
        assert job.state == "DONE"

    def test_preemption_cycle(self):
        job = Job(id="j", spec=JobSpec())
        job.transition("RUNNING")
        job.transition("PREEMPTED")
        job.transition("PENDING")
        job.transition("RUNNING")
        assert job.state == "RUNNING"

    def test_illegal_transition_rejected(self):
        job = Job(id="j", spec=JobSpec())
        with pytest.raises(InvalidTransition):
            job.transition("DONE")  # PENDING cannot jump to DONE
        job.transition("RUNNING")
        job.transition("DONE")
        with pytest.raises(InvalidTransition):
            job.transition("RUNNING")  # DONE is terminal

    def test_unknown_state_rejected(self):
        with pytest.raises(InvalidTransition):
            Job(id="j", spec=JobSpec()).transition("LIMBO")

    def test_progress_properties(self):
        job = Job(id="j", spec=JobSpec(steps=10))
        assert job.remaining == 10
        job.steps_done = 4
        assert job.remaining == 6
        job.steps_done = 12
        assert job.remaining == 0

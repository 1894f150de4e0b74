"""Integration tests: the simulation service end to end.

The service's acceptance contract is *byte identity*: every job's
trajectory, checkpoints, and energy log must equal a same-seed solo
:class:`~repro.core.simulation.Simulation` run's — through batching,
preemption, worker death, and server restarts.  The in-process tests
drive :func:`~repro.serve.workers.execute_assignment` directly (fast,
deterministic); the live-server tests boot a real :class:`Server` with
worker processes and exercise the socket protocol, scheduling, and
crash recovery.
"""

import multiprocessing as mp
import os
import signal
import socket
import time

import pytest

from repro.core.simulation import Simulation
from repro.core.thermostat import BerendsenThermostat
from repro.io import (
    CheckpointStore,
    EnergyLogWriter,
    job_checkpoint_dir,
    job_energy_log_path,
    job_trajectory_path,
)
from repro.kernels import available, get_suite
from repro.serve import (
    AssignmentJob,
    JobSpec,
    PreparedSystems,
    ServeClient,
    ServeConfig,
    Server,
    execute_assignment,
    prepare_job_system,
)

SPEC = dict(waters=8, steps=6, record_every=2, checkpoint_every=2)

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)


def solo_reference(tmp_path, spec: JobSpec):
    """Artifacts of an uninterrupted same-seed solo Simulation."""
    system, params = prepare_job_system(spec)
    system.initialize_velocities(spec.temperature, seed=spec.seed)
    sim = Simulation(system, params, dt=spec.dt, mode="fixed",
                     thermostat=BerendsenThermostat(spec.temperature),
                     constraints=True)
    ref = tmp_path / f"ref-{spec.seed}-{spec.name or 'x'}"
    ref.mkdir(parents=True)
    trajectory = sim.open_trajectory(job_trajectory_path(ref))
    store = CheckpointStore(job_checkpoint_dir(ref), retain=spec.retain)
    writer = EnergyLogWriter(job_energy_log_path(ref))
    try:
        for _ in sim.run(spec.steps, record_every=spec.record_every,
                         energy_writer=writer, trajectory=trajectory,
                         trajectory_every=spec.effective_trajectory_every,
                         checkpoint_store=store,
                         checkpoint_every=spec.checkpoint_every):
            pass
        store.save(sim.checkpoint(), sim.integrator.step_count)
    finally:
        trajectory.close()
        writer.close()
    return ref


def preempt_after(n):
    """A ``control`` callable that asks for preemption at the n-th poll
    (polls happen at slice boundaries)."""
    polls = []

    def control():
        polls.append(1)
        return "preempt" if len(polls) >= n else None

    return control


def assert_artifacts_identical(job_dir, ref_dir):
    assert job_trajectory_path(job_dir).read_bytes() == \
        job_trajectory_path(ref_dir).read_bytes()
    assert job_energy_log_path(job_dir).read_bytes() == \
        job_energy_log_path(ref_dir).read_bytes()
    names = sorted(p.name for p in job_checkpoint_dir(job_dir).iterdir())
    assert names == sorted(p.name for p in job_checkpoint_dir(ref_dir).iterdir())
    for name in names:
        assert (job_checkpoint_dir(job_dir) / name).read_bytes() == \
            (job_checkpoint_dir(ref_dir) / name).read_bytes()


class TestExecuteAssignment:
    def test_batched_jobs_match_solo_runs(self, tmp_path):
        """A fused 3-job batch produces three byte-identical solo runs."""
        specs = [JobSpec(seed=s, **SPEC) for s in (1, 2, 3)]
        jobs = [AssignmentJob(f"j{s.seed}", s, str(tmp_path / f"j{s.seed}"))
                for s in specs]
        outcome = execute_assignment(jobs, get_suite())
        assert outcome.status == "done", outcome.error
        assert outcome.steps_done == {j.id: 6 for j in jobs}
        for spec, job in zip(specs, jobs):
            assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_preempt_then_resume_heals_to_byte_identity(self, tmp_path):
        spec = JobSpec(seed=9, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))
        first = execute_assignment([job], get_suite(), control=preempt_after(2))
        assert first.status == "preempted"
        assert 0 < first.steps_done["j"] < spec.steps
        job.steps_done = first.steps_done["j"]
        second = execute_assignment([job], get_suite())
        assert second.status == "done", second.error
        assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    def test_resumed_slices_run_on_the_worker_tier(self, tmp_path, monkeypatch, tier):
        """Preempted after the first slice; the resume is an R=1
        ensemble on the same kernel tier as the fresh slice."""
        import repro.ensemble

        engine_tiers = []

        class Recording(repro.ensemble.EnsembleSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engine_tiers.append((self.replicas, self.kernels.tier))

        monkeypatch.setattr(repro.ensemble, "EnsembleSimulation", Recording)
        kernels = get_suite(tier, 1)
        spec = JobSpec(seed=9, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))

        first = execute_assignment([job], kernels, control=lambda: "preempt")
        assert first.status == "preempted"
        assert first.steps_done["j"] == 2  # stopped after the first slice
        job.steps_done = first.steps_done["j"]
        second = execute_assignment([job], kernels)
        assert second.status == "done", second.error
        assert engine_tiers == [(1, tier), (1, tier)]
        assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_torn_newest_checkpoint_falls_back_to_previous(self, tmp_path):
        spec = JobSpec(seed=5, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))
        first = execute_assignment([job], get_suite(), control=preempt_after(2))
        assert first.steps_done["j"] == 4
        store = CheckpointStore(job_checkpoint_dir(job.artifact_dir))
        assert store.steps() == [2, 4]
        newest = store.path_for(4)
        newest.write_bytes(newest.read_bytes()[:-7])  # torn mid-write
        job.steps_done = 4
        seen = []
        second = execute_assignment([job], get_suite(), progress=seen.append)
        assert second.status == "done", second.error
        assert seen[0] == {"j": 4}  # resumed from step 2, not 4
        assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_resume_with_no_checkpoint_restarts_from_scratch(self, tmp_path):
        # Worker died before its first checkpoint landed: the requeued
        # job claims progress but has no durable state — it must restart
        # cleanly from step 0 and still match the solo reference.
        spec = JobSpec(seed=4, **SPEC)
        job_dir = tmp_path / "j"
        job_dir.mkdir()
        job = AssignmentJob("j", spec, str(job_dir), steps_done=2)
        outcome = execute_assignment([job], get_suite())
        assert outcome.status == "done", outcome.error
        assert_artifacts_identical(job_dir, solo_reference(tmp_path, spec))

    def test_mixed_progress_batch_rejected(self, tmp_path):
        spec = JobSpec(**SPEC)
        fresh = AssignmentJob("a", spec, str(tmp_path / "a"))
        resumed = AssignmentJob("b", spec, str(tmp_path / "b"), steps_done=2)
        outcome = execute_assignment([fresh, resumed], get_suite())
        assert outcome.status == "failed"
        assert "share one steps_done" in outcome.error

    @pytest.mark.parametrize(
        "tier", ["numpy", pytest.param("compiled", marks=needs_compiler)]
    )
    def test_preempted_batch_resumes_as_a_batch(self, tmp_path, monkeypatch, tier):
        """R=3 preempted at a slice boundary, then resumed *together*:
        every lane's artifacts equal its solo run's."""
        import repro.ensemble

        engines = []

        class Recording(repro.ensemble.EnsembleSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append((self.replicas, self.kernels.tier))

        monkeypatch.setattr(repro.ensemble, "EnsembleSimulation", Recording)
        kernels = get_suite(tier, 1)
        specs = [JobSpec(seed=s, steps=8, waters=8, record_every=2, checkpoint_every=2)
                 for s in (1, 2, 3)]
        jobs = [AssignmentJob(f"j{s.seed}", s, str(tmp_path / f"j{s.seed}"))
                for s in specs]
        first = execute_assignment(jobs, kernels, control=preempt_after(2))
        assert first.status == "preempted"
        assert first.steps_done == {j.id: 4 for j in jobs}
        for job in jobs:
            job.steps_done = 4
        seen = []
        second = execute_assignment(jobs, kernels, progress=seen.append)
        assert second.status == "done", second.error
        assert seen[0] == {j.id: 6 for j in jobs}  # resumed at 4, not rerun
        assert engines == [(3, tier), (3, tier)]
        for spec, job in zip(specs, jobs):
            assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_divergent_restore_is_reported_not_run(self, tmp_path):
        """One lane lost its newest snapshot: the lanes no longer share
        a clock, so the worker runs nothing and reports each lane's
        true step; regrouped by progress, every job still finishes to
        byte identity."""
        specs = [JobSpec(seed=s, steps=8, waters=8, record_every=2, checkpoint_every=2)
                 for s in (1, 2, 3)]
        jobs = [AssignmentJob(f"j{s.seed}", s, str(tmp_path / f"j{s.seed}"))
                for s in specs]
        assert execute_assignment(jobs, get_suite(), control=preempt_after(2)).status == "preempted"
        store = CheckpointStore(job_checkpoint_dir(jobs[1].artifact_dir))
        assert store.steps() == [2, 4]
        store.path_for(4).unlink()
        for job in jobs:
            job.steps_done = 4
        seen = []
        outcome = execute_assignment(jobs, get_suite(), progress=seen.append)
        assert outcome.status == "preempted"
        assert outcome.steps_done == {"j1": 4, "j2": 2, "j3": 4}
        assert seen == []  # not one slice ran
        # What the server does with that outcome: requeue at the true
        # steps; the scheduler then groups j1+j3 and leaves j2 alone.
        for job in jobs:
            job.steps_done = outcome.steps_done[job.id]
        assert execute_assignment([jobs[0], jobs[2]], get_suite()).status == "done"
        assert execute_assignment([jobs[1]], get_suite()).status == "done"
        for spec, job in zip(specs, jobs):
            assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_batch_with_a_lane_that_never_checkpointed(self, tmp_path):
        # Two lanes claim step 2; one has no durable state at all.  Its
        # true step is 0, the other's is 2: reported, not run.
        specs = [JobSpec(seed=s, **SPEC) for s in (1, 2)]
        jobs = [AssignmentJob(f"j{s.seed}", s, str(tmp_path / f"j{s.seed}"))
                for s in specs]
        first = execute_assignment([jobs[0]], get_suite(), control=lambda: "preempt")
        assert first.steps_done == {"j1": 2}
        for job in jobs:
            job.steps_done = 2
        outcome = execute_assignment(jobs, get_suite())
        assert outcome.status == "preempted"
        assert outcome.steps_done == {"j1": 2, "j2": 0}

    def test_broken_spec_fails_not_raises(self, tmp_path):
        spec = JobSpec(waters=8, steps=6, record_every=2, checkpoint_every=2,
                       cutoff=1e6)  # cutoff far beyond the box: build fails
        outcome = execute_assignment(
            [AssignmentJob("j", spec, str(tmp_path / "j"))], get_suite())
        assert outcome.status == "failed"
        assert outcome.error


class TestPreparedSystems:
    def test_cached_dispatches_match_the_uncached_path(self, tmp_path):
        """Two dispatches served from one resident entry produce the
        artifacts a cold preparation does (the solo reference calls
        ``prepare_job_system`` itself)."""
        cache = PreparedSystems()
        outcomes = []
        specs = [JobSpec(seed=s, **SPEC) for s in (1, 2)]
        for spec in specs:
            job = AssignmentJob(f"j{spec.seed}", spec, str(tmp_path / f"j{spec.seed}"))
            outcomes.append(execute_assignment([job], get_suite(), prepared=cache))
            assert outcomes[-1].status == "done", outcomes[-1].error
            assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))
        assert [o.prepared_from_cache for o in outcomes] == [False, True]
        assert outcomes[1].prepare_seconds < outcomes[0].prepare_seconds
        assert len(cache) == 1

    def test_checkout_is_independent_of_the_resident_entry(self):
        import numpy as np

        cache = PreparedSystems()
        spec = JobSpec(**SPEC)
        system, _params, hit = cache.checkout(spec)
        assert not hit
        pristine = system.positions.copy()
        masses = system.masses.copy()
        system.positions += 1.0  # dynamic state
        system.masses[0] = 99.0  # and a "static" array
        system.meta["scribble"] = True
        again, _params, hit = cache.checkout(spec)
        assert hit
        assert again is not system
        assert np.array_equal(again.positions, pristine)
        assert np.array_equal(again.masses, masses)
        assert "scribble" not in again.meta

    def test_lru_bound_and_recency(self, monkeypatch):
        import repro.serve.workers as workers

        built = []
        monkeypatch.setattr(workers, "prepare_job_system",
                            lambda spec: built.append(spec.waters) or ({}, None))
        cache = PreparedSystems()
        for waters in range(1, PreparedSystems.BOUND + 4):
            cache.checkout(JobSpec(waters=waters))
            assert len(cache) <= PreparedSystems.BOUND
        newest = PreparedSystems.BOUND + 3
        assert cache.checkout(JobSpec(waters=newest))[2]  # still resident
        assert not cache.checkout(JobSpec(waters=1))[2]  # oldest was evicted
        assert built == [*range(1, newest + 1), 1]
        # A hit refreshes recency: touch the oldest survivor, add one
        # more, and it is the second-oldest that goes.
        survivors = sorted(set(built[-PreparedSystems.BOUND:]))
        cache.checkout(JobSpec(waters=survivors[0]))
        cache.checkout(JobSpec(waters=100))
        assert cache.checkout(JobSpec(waters=survivors[0]))[2]
        assert not cache.checkout(JobSpec(waters=survivors[1]))[2]

    def test_prepare_job_system_itself_is_never_cached(self, monkeypatch):
        """The public function is the cold path the baselines measure."""
        import numpy as np

        import repro.systems.builder as recipe  # where the one recipe minimises

        calls = []
        real = recipe.minimize_energy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(recipe, "minimize_energy", counting)
        spec = JobSpec(**SPEC)
        cache = PreparedSystems()
        cache.checkout(spec)
        cache.checkout(spec)
        assert len(calls) == 1
        a, _ = prepare_job_system(spec)
        b, _ = prepare_job_system(spec)
        assert len(calls) == 3
        assert a is not b
        assert np.array_equal(a.positions, b.positions)

class TestSocketOwnership:
    def test_second_server_refuses_live_socket(self, tmp_path):
        # A second `repro serve` on a live directory must refuse instead
        # of hijacking the socket (its shutdown would unlink the
        # incumbent's) — and must leak no worker processes doing so.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(tmp_path / "serve.sock"))
        sock.listen(1)
        try:
            with pytest.raises(RuntimeError, match="live server"):
                Server(tmp_path, ServeConfig(workers=1))
        finally:
            sock.close()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        # A socket file left by a SIGKILLed server is dead weight: a new
        # server must unlink and rebind it.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(tmp_path / "serve.sock"))
        sock.close()  # closed but never unlinked — the SIGKILL aftermath
        server = Server(tmp_path, ServeConfig(workers=1))
        try:
            assert server.sock_path.exists()
        finally:
            server.close()


def _server_entry(directory, workers, tick):
    server = Server(directory, ServeConfig(workers=workers, tick=tick))
    server.serve_forever()


@pytest.fixture
def live_server(tmp_path):
    """A real Server (own process, worker pool) + connected client."""
    state = tmp_path / "state"
    # Not a daemon: the server forks worker children of its own.
    proc = mp.get_context("fork").Process(
        target=_server_entry, args=(str(state), 2, 0.02))
    proc.start()
    client = ServeClient(state, timeout=10.0)
    deadline = time.time() + 30
    while True:
        try:
            client.ping()
            break
        except Exception:
            if time.time() > deadline:
                proc.kill()
                raise RuntimeError("server did not come up")
            time.sleep(0.1)
    yield state, client
    try:
        client.shutdown()
    except Exception:
        pass
    proc.join(timeout=15)
    if proc.is_alive():
        proc.kill()


@pytest.mark.slow
class TestLiveServer:
    def test_jobs_run_and_match_solo(self, tmp_path, live_server):
        state, client = live_server
        specs = [JobSpec(seed=s, name=f"job-{s}", **SPEC) for s in (1, 2)]
        ids = [client.submit(s.to_dict())["id"] for s in specs]
        states = client.wait(ids, timeout=240)
        assert set(states.values()) == {"DONE"}
        for spec, job_id in zip(specs, ids):
            job = client.status(job_id)
            assert job["steps_done"] == spec.steps
            assert_artifacts_identical(job["artifact_dir"],
                                       solo_reference(tmp_path, spec))

    def test_worker_sigkill_recovers_bit_exactly(self, tmp_path, live_server):
        state, client = live_server
        # Enough slices that the kill lands mid-run on either kernel
        # tier (the compiled one finishes 40 steps inside a poll or two).
        spec = JobSpec(waters=8, steps=200, record_every=2, checkpoint_every=2,
                       seed=5, name="victim")
        client.submit(spec.to_dict())
        deadline = time.time() + 120
        victim_pid = None
        while time.time() < deadline:
            status = client.status("victim")
            if status["state"] == "RUNNING" and status["steps_done"] >= 2:
                for w in client.metrics()["workers"]:
                    # The online event said which kernel build the worker runs.
                    assert w["kernel"]["tier"] == w["tier"]
                    assert ("so" in w["kernel"]) == (w["tier"] == "compiled")
                    if "victim" in w["jobs"]:
                        victim_pid = w["pid"]
                break
            time.sleep(0.1)
        assert victim_pid, "job never started running"
        os.kill(victim_pid, signal.SIGKILL)
        states = client.wait(["victim"], timeout=240)
        assert states["victim"] == "DONE"
        job = client.status("victim")
        assert job["recoveries"] >= 1
        assert_artifacts_identical(job["artifact_dir"],
                                   solo_reference(tmp_path, spec))

    def test_cancel_running_job(self, live_server):
        state, client = live_server
        spec = JobSpec(waters=8, steps=2000, record_every=2, checkpoint_every=2,
                       name="longjob")
        client.submit(spec.to_dict())
        deadline = time.time() + 120
        while client.status("longjob")["state"] != "RUNNING":
            assert time.time() < deadline
            time.sleep(0.1)
        client.cancel("longjob")
        states = client.wait(["longjob"], timeout=240)
        assert states["longjob"] == "CANCELLED"
        assert client.status("longjob")["steps_done"] < spec.steps

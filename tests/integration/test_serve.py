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
from repro.kernels import available, resolve_config
from repro.serve import (
    AssignmentJob,
    JobSpec,
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
        outcome = execute_assignment(jobs)
        assert outcome.status == "done", outcome.error
        assert outcome.steps_done == {j.id: 6 for j in jobs}
        for spec, job in zip(specs, jobs):
            assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_preempt_then_resume_heals_to_byte_identity(self, tmp_path):
        spec = JobSpec(seed=9, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))
        slices = {"n": 0}

        def control():
            slices["n"] += 1
            return "preempt" if slices["n"] >= 2 else None

        first = execute_assignment([job], control=control)
        assert first.status == "preempted"
        assert 0 < first.steps_done["j"] < spec.steps
        job.steps_done = first.steps_done["j"]
        second = execute_assignment([job])
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
        cfg = resolve_config(tier, 1)
        spec = JobSpec(seed=9, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))

        first = execute_assignment([job], control=lambda: "preempt", kernel_cfg=cfg)
        assert first.status == "preempted"
        assert first.steps_done["j"] == 2  # stopped after the first slice
        job.steps_done = first.steps_done["j"]
        second = execute_assignment([job], kernel_cfg=cfg)
        assert second.status == "done", second.error
        assert engine_tiers == [(1, tier), (1, tier)]
        assert_artifacts_identical(job.artifact_dir, solo_reference(tmp_path, spec))

    def test_torn_newest_checkpoint_falls_back_to_previous(self, tmp_path):
        spec = JobSpec(seed=5, steps=8, waters=8, record_every=2, checkpoint_every=2)
        job = AssignmentJob("j", spec, str(tmp_path / "j"))
        slices = {"n": 0}

        def control():
            slices["n"] += 1
            return "preempt" if slices["n"] >= 2 else None

        first = execute_assignment([job], control=control)
        assert first.steps_done["j"] == 4
        store = CheckpointStore(job_checkpoint_dir(job.artifact_dir))
        assert store.steps() == [2, 4]
        newest = store.path_for(4)
        newest.write_bytes(newest.read_bytes()[:-7])  # torn mid-write
        job.steps_done = 4
        seen = []
        second = execute_assignment([job], progress=seen.append)
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
        outcome = execute_assignment([job])
        assert outcome.status == "done", outcome.error
        assert_artifacts_identical(job_dir, solo_reference(tmp_path, spec))

    def test_mixed_progress_batch_rejected(self, tmp_path):
        spec = JobSpec(**SPEC)
        fresh = AssignmentJob("a", spec, str(tmp_path / "a"))
        resumed = AssignmentJob("b", spec, str(tmp_path / "b"), steps_done=2)
        outcome = execute_assignment([fresh, resumed])
        assert outcome.status == "failed"
        assert "fresh" in outcome.error

    def test_broken_spec_fails_not_raises(self, tmp_path):
        spec = JobSpec(waters=8, steps=6, record_every=2, checkpoint_every=2,
                       cutoff=1e6)  # cutoff far beyond the box: build fails
        outcome = execute_assignment(
            [AssignmentJob("j", spec, str(tmp_path / "j"))])
        assert outcome.status == "failed"
        assert outcome.error


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

"""Integration: the durable run store resumes runs bit-exactly.

The paper's multi-month simulations (Table 1) depend on checkpointed
restarts that do not perturb the trajectory.  These tests run the full
disk path — checkpoint() -> CheckpointStore -> file -> load_latest()
-> restore() — for the Simulation driver and for the AntonMachine
under every execution backend, and assert the resumed state codes are
bitwise identical to an uninterrupted run.  Corruption-fallback is
covered too, and so is artifact byte-identity across a *real* kill: a
child process runs solo, an R=2 ensemble and an 8-node machine through
the durable-run session and dies by ``os._exit`` — no flush, no close,
what SIGKILL does — either right after an in-run checkpoint lands or
with frames written past its last checkpoint.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation
from repro.io import (
    CheckpointStore,
    FingerprintMismatch,
    RunSession,
    TrajectoryReader,
    pack_state,
)
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.serial_backend import machine_backend

SIM_PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16), long_range_every=2)
MACHINE_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=2,
)


def prepared_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, MACHINE_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


@pytest.fixture(scope="module")
def base_system():
    return prepared_system()


# -- a durable run that can be killed for real --------------------------------

REPO = Path(__file__).resolve().parents[2]
STEPS = 12
KILLED = 9  # the dying child's exit status


class _DieAfterSave(CheckpointStore):
    """A store whose process dies the instant ``die_at``'s snapshot is durable."""

    die_at = None

    def save(self, state, step):
        path = super().save(state, step)
        if step == self.die_at:
            os._exit(KILLED)
        return path


def durable_run(kind, workdir, steps, checkpoint_every, resume=False,
                die_after_checkpoint=None, die_after_run=False, system=None):
    """Run ``kind`` to global step ``steps`` through one RunSession.

    Frames every 2 steps, checkpoints every ``checkpoint_every``, a
    final checkpoint on a clean exit — what the CLI and the service do.
    ``die_after_checkpoint`` / ``die_after_run`` kill the process with
    every file still open.
    """
    workdir = Path(workdir)
    system = system if system is not None else prepared_system()
    if kind == "solo":
        driver = Simulation(system.copy(), SIM_PARAMS, dt=1.0)
        engine = driver.engine
    elif kind == "ensemble":
        driver = engine = EnsembleSimulation(
            system.copy(), SIM_PARAMS, dt=1.0, seeds=[3, 4], temperature=300.0
        )
    else:
        driver = engine = AntonMachine(system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0)
    lanes = range(engine.replicas)
    stores = [_DieAfterSave(workdir / f"ck{r}") for r in lanes]
    stores[-1].die_at = die_after_checkpoint  # every lane's snapshot has landed
    session = RunSession(stores, resume=resume)
    done = session.open(engine, [workdir / f"traj{r}.rrs" for r in lanes])
    cadence = dict(trajectory_every=2, checkpoint_every=checkpoint_every)
    with session:
        if kind == "ensemble":
            driver.run(steps - done, trajectories=session.trajectories,
                       checkpoint_stores=session.stores, **cadence)
        else:
            driver.run(steps - done, trajectory=session.trajectories[0],
                       checkpoint_store=session.stores[0], **cadence)
        if die_after_run:
            os._exit(KILLED)
    return done


def killed_run(kind, workdir, steps, checkpoint_every, **how):
    """:func:`durable_run` in a child process that must die by ``os._exit``."""
    call = (f"durable_run({kind!r}, {str(workdir)!r}, {steps}, {checkpoint_every}, "
            + ", ".join(f"{k}={v!r}" for k, v in how.items()) + ")")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    proc = subprocess.run(
        [sys.executable, "-c", f"from tests.integration.test_run_store import *; {call}"],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == KILLED, proc.stderr


def artifacts(workdir):
    """Every trajectory and every final checkpoint of a run directory."""
    workdir = Path(workdir)
    final = f"ckpt-{STEPS:012d}.rrs"
    files = sorted(workdir.glob("traj*.rrs")) + sorted(workdir.glob(f"ck*/{final}"))
    return {str(p.relative_to(workdir)): p.read_bytes() for p in files}


@pytest.fixture(scope="module")
def reference(base_system, tmp_path_factory):
    """``reference(kind)``: artifacts of the uninterrupted run, cached."""
    cache = {}

    def get(kind):
        if kind not in cache:
            workdir = tmp_path_factory.mktemp(f"ref-{kind}")
            durable_run(kind, workdir, STEPS, 4, system=base_system)
            cache[kind] = artifacts(workdir)
        return cache[kind]

    return get


@pytest.mark.parametrize("kind", ["solo", "ensemble", "machine"])
def test_kill_right_after_checkpoint_resumes_byte_identical(
        kind, base_system, reference, tmp_path):
    """The newest checkpoint is never newer than the durable trajectory.

    The child dies the instant its step-4 checkpoint lands; the frame
    of step 4 was written one statement earlier and is only on disk
    because the run loop flushes trajectories before it saves.
    """
    killed_run(kind, tmp_path, STEPS, 4, die_after_checkpoint=4)
    with TrajectoryReader(tmp_path / "traj0.rrs") as r:
        assert list(r.steps) == [2, 4] and r.index_rebuilt
    assert durable_run(kind, tmp_path, STEPS, 4, resume=True, system=base_system) == 4
    assert artifacts(tmp_path) == reference(kind)
    assert len(reference(kind)) == 2 * (2 if kind == "ensemble" else 1)


class TestSimulationDiskRoundTrip:
    @pytest.mark.parametrize("mode", ["fixed", "float"])
    def test_disk_resume_bitwise(self, base_system, mode, tmp_path):
        ref = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode=mode)
        ref.run(12)

        store = CheckpointStore(tmp_path / "ck")
        first = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode=mode)
        first.run(6, checkpoint_store=store, checkpoint_every=3)
        assert store.steps() == [3, 6]

        loaded = store.load_latest()
        resumed = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode=mode)
        resumed.restore(loaded.state)
        resumed.run(6)
        if mode == "fixed":
            for a, b in zip(resumed.integrator.state_codes(),
                            ref.integrator.state_codes()):
                np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_array_equal(resumed.positions, ref.positions)
            np.testing.assert_array_equal(resumed.velocities, ref.velocities)

    def test_corrupt_newest_falls_back_and_still_bitwise(self, base_system, tmp_path):
        ref = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        ref.run(12)

        store = CheckpointStore(tmp_path / "ck")
        first = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        first.run(9, checkpoint_store=store, checkpoint_every=3)
        newest = store.path_for(9)
        newest.write_bytes(newest.read_bytes()[:-40])  # torn by a crash

        loaded = store.load_latest()
        assert loaded.step == 6
        assert [p for p, _why in loaded.skipped] == [newest]
        resumed = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        resumed.restore(loaded.state)
        resumed.run(6)
        for a, b in zip(resumed.integrator.state_codes(),
                        ref.integrator.state_codes()):
            np.testing.assert_array_equal(a, b)

    def test_wrong_system_rejected_from_disk(self, base_system, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        donor = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        donor.run(2, checkpoint_store=store, checkpoint_every=2)

        other_system = build_water_box(n_molecules=27, seed=11)
        other = Simulation(other_system, SIM_PARAMS, dt=1.0, mode="fixed")
        with pytest.raises(FingerprintMismatch, match="n_atoms"):
            other.restore(store.load_latest().state)

    def test_interrupted_trajectory_matches_uninterrupted(
            self, base_system, reference, tmp_path):
        # The child checkpoints at 6, keeps writing frames to step 8 and
        # is killed with the file open (no index record, no trailer,
        # whatever was still buffered lost); the resume starts from 6.
        killed_run("solo", tmp_path, 8, 6, die_after_run=True)
        assert CheckpointStore(tmp_path / "ck0").steps() == [6]

        # Frames past step 6 from the dead run are truncated; the
        # cadence realigns on the global step count.
        assert durable_run("solo", tmp_path, STEPS, 6, resume=True, system=base_system) == 6
        assert artifacts(tmp_path) == reference("solo")
        with TrajectoryReader(tmp_path / "traj0.rrs") as r:
            assert r.verify().ok
            assert list(r.steps) == [2, 4, 6, 8, 10, 12]


class TestMachineDiskRoundTrip:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_disk_resume_bitwise(self, base_system, backend, tmp_path):
        def make(n_nodes=8):
            return AntonMachine(
                base_system.copy(), MACHINE_PARAMS, n_nodes=n_nodes, dt=1.0,
                backend=machine_backend(backend),
            )

        reference = make()
        try:
            reference.run(6)
            X_ref, V_ref = reference.state_codes()
        finally:
            reference.close()

        store = CheckpointStore(tmp_path / "ck")
        first = make()
        try:
            first.run(3, checkpoint_store=store, checkpoint_every=3)
        finally:
            first.close()

        resumed = make()
        try:
            resumed.restore(store.load_latest().state)
            resumed.run(3)
            X_res, V_res = resumed.state_codes()
        finally:
            resumed.close()
        np.testing.assert_array_equal(X_ref, X_res)
        np.testing.assert_array_equal(V_ref, V_res)

    def test_resume_across_node_counts(self, base_system, tmp_path):
        # Parallel invariance extends to the store: a snapshot taken on
        # 8 nodes resumes on 64 and lands on the 8-node run's bits.
        reference = AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            reference.run(6)
            X_ref, V_ref = reference.state_codes()
        finally:
            reference.close()

        store = CheckpointStore(tmp_path / "ck")
        donor = AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            donor.run(3, checkpoint_store=store, checkpoint_every=3)
        finally:
            donor.close()

        resumed = AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=64, dt=1.0, backend="vectorized"
        )
        try:
            resumed.restore(store.load_latest().state)
            resumed.run(3)
            X_res, V_res = resumed.state_codes()
        finally:
            resumed.close()
        np.testing.assert_array_equal(X_ref, X_res)
        np.testing.assert_array_equal(V_ref, V_res)

    def test_machine_trajectory_decodes_bit_exactly(self, base_system, tmp_path):
        def make():
            return AntonMachine(
                base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
            )

        bare = make()
        try:
            bare.run(4)
            X_bare, V_bare = bare.state_codes()
        finally:
            bare.close()

        path = tmp_path / "m.rrs"
        machine = make()
        try:
            with machine.open_trajectory(path) as traj:
                machine.run(4, trajectory=traj, trajectory_every=2,
                            checkpoint_store=CheckpointStore(tmp_path / "ck"),
                            checkpoint_every=3)
            X, V = machine.state_codes()
            live_positions = machine.integrator.positions
        finally:
            machine.close()
        # Persisting state does not perturb it.
        np.testing.assert_array_equal(X, X_bare)
        np.testing.assert_array_equal(V, V_bare)
        with TrajectoryReader(path) as r:
            assert r.verify().ok
            assert list(r.steps) == [2, 4]
            last = r.frame(-1)
            np.testing.assert_array_equal(last.arrays["X"], X)
            np.testing.assert_array_equal(r.positions(last), live_positions)


def test_all_three_writers_emit_the_same_decode_header(base_system, tmp_path):
    """Solo, ensemble and machine trajectories share one header format."""
    writers = {
        "solo": Simulation(base_system.copy(), MACHINE_PARAMS, dt=1.0).open_trajectory,
        "ensemble": EnsembleSimulation(
            base_system.copy(), MACHINE_PARAMS, dt=1.0, replicas=1
        ).open_replica_trajectory,
        "machine": AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0
        ).open_trajectory,
    }
    headers = {}
    for name, open_trajectory in writers.items():
        open_trajectory(tmp_path / f"{name}.rrs").close()
        with TrajectoryReader(tmp_path / f"{name}.rrs") as r:
            headers[name] = pack_state(r.decode)
    assert headers["solo"] == headers["ensemble"] == headers["machine"]
    # The solo and replica files differ in nothing at all.
    assert (tmp_path / "solo.rrs").read_bytes() == (tmp_path / "ensemble.rrs").read_bytes()

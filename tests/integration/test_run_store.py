"""Integration: the durable run store resumes runs bit-exactly.

The paper's multi-month simulations (Table 1) depend on checkpointed
restarts that do not perturb the trajectory.  These tests run the full
disk path — checkpoint() -> CheckpointStore -> file -> load_latest()
-> restore() — for the Simulation driver and for the AntonMachine
under every execution backend, and assert the resumed state codes are
bitwise identical to an uninterrupted run.  Corruption-fallback and
trajectory byte-identity across an interruption are covered too.
"""

import numpy as np
import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation
from repro.io import CheckpointStore, FingerprintMismatch, TrajectoryReader, pack_state
from repro.machine import AntonMachine
from repro.systems import build_water_box

SIM_PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16), long_range_every=2)
MACHINE_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    kernel_mode="table",
    long_range_every=2,
    quantize_mesh_bits=40,
)


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, MACHINE_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


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

    def test_interrupted_trajectory_matches_uninterrupted(self, base_system, tmp_path):
        # Uninterrupted run writing 12 steps of frames.
        ref_path = tmp_path / "ref.rrs"
        ref = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        with ref.open_trajectory(ref_path) as traj:
            ref.run(12, trajectory=traj, trajectory_every=2)

        # Interrupted run: checkpoint at 6, keeps writing to step 8,
        # "crashes" (no close -> torn index-less file), resumes from 6.
        store = CheckpointStore(tmp_path / "ck")
        crash_path = tmp_path / "crash.rrs"
        first = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        traj = first.open_trajectory(crash_path)
        first.run(8, trajectory=traj, trajectory_every=2,
                  checkpoint_store=store, checkpoint_every=6)
        traj.flush()
        traj._f.close()  # SIGKILL: no index record, no trailer

        resumed = Simulation(base_system.copy(), SIM_PARAMS, dt=1.0, mode="fixed")
        resumed.restore(store.load_latest().state)
        assert resumed.integrator.step_count == 6
        with resumed.append_trajectory(crash_path) as traj:
            # Frames at steps 7-8 from the dead run were truncated;
            # cadence realigns on the global step count.
            resumed.run(6, trajectory=traj, trajectory_every=2)

        assert crash_path.read_bytes() == ref_path.read_bytes()
        with TrajectoryReader(crash_path) as r:
            assert r.verify().ok
            assert list(r.steps) == [2, 4, 6, 8, 10, 12]


class TestMachineDiskRoundTrip:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_disk_resume_bitwise(self, base_system, backend, tmp_path):
        def make(n_nodes=8):
            return AntonMachine(
                base_system.copy(), MACHINE_PARAMS, n_nodes=n_nodes, dt=1.0,
                backend=backend,
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
        path = tmp_path / "m.rrs"
        machine = AntonMachine(
            base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0, backend="vectorized"
        )
        try:
            with machine.open_trajectory(path) as traj:
                machine.run(4, trajectory=traj, trajectory_every=2)
            X, _V = machine.state_codes()
            live_positions = machine.integrator.positions
        finally:
            machine.close()
        with TrajectoryReader(path) as r:
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

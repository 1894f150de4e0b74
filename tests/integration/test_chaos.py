"""Chaos harness: injected faults heal back to the fault-free bits.

The acceptance bar of the fault subsystem, pinned end-to-end: for any
seeded fault schedule, the recovered run's final int64 state codes are
bit-identical to the fault-free run's, its primary traffic statistics
are exactly the clean run's (retransmits and replay traffic live in a
separate pool), and its on-disk artifacts — trajectory and checkpoint
files — are byte-identical.  All of it must hold on both the serial
and vectorized backends, with identical recovery counters.
"""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.fault import FaultEvent, FaultSchedule, RecoveryPolicy
from repro.io import CheckpointStore
from repro.io.serialize import pack_state
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.serial_backend import machine_backend

PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=2,
)

#: Aggressive mixed schedule: every message kind plus both node kinds.
CHAOS_RATES = {
    "drop": 0.3,
    "corrupt": 0.2,
    "duplicate": 0.2,
    "delay": 0.2,
    "stall": 1,
    "crash": 1,
}


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def run_machine(base_system, backend, steps=10, faults=None, fault_seed=7, **kwargs):
    machine = AntonMachine(
        base_system.copy(),
        PARAMS,
        n_nodes=8,
        dt=1.0,
        backend=machine_backend(backend),
        faults=faults,
        fault_seed=fault_seed,
        recovery=kwargs.pop("recovery", None),
    )
    try:
        machine.run(steps, **kwargs)
        return {
            "codes": machine.state_codes(),
            "packed": pack_state(machine.checkpoint()),
            "traffic": machine.traffic_summary(),
            "report": machine.fault_report(),
            "recovery": machine.recovery_traffic_summary(),
        }
    finally:
        machine.close()


class TestChaosInvariance:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_recovered_run_bit_identical_to_clean(self, base_system, backend):
        clean = run_machine(base_system, backend)
        chaos = run_machine(base_system, backend, faults=CHAOS_RATES)

        # Faults actually fired and recovery actually worked.
        report = chaos["report"]
        assert report["injected"] > 0
        assert report["retries"] > 0
        assert report["crashes"] >= 1
        assert report["rollbacks"] >= 1
        assert report["replayed_steps"] >= 1

        # The healed trajectory is the fault-free one, bit for bit.
        np.testing.assert_array_equal(clean["codes"][0], chaos["codes"][0])
        np.testing.assert_array_equal(clean["codes"][1], chaos["codes"][1])
        assert clean["packed"] == chaos["packed"]

        # Primary traffic is exactly the clean run's; the healing cost
        # (retransmits and replayed steps) is visible but quarantined in
        # the recovery pool.
        assert clean["traffic"] == chaos["traffic"]
        assert sum(m for m, _ in chaos["recovery"].values()) > 0
        assert clean["recovery"] == {}

    def test_serial_and_vectorized_heal_identically(self, base_system):
        serial = run_machine(base_system, "serial", faults=CHAOS_RATES)
        vector = run_machine(base_system, "vectorized", faults=CHAOS_RATES)
        assert serial["report"] == vector["report"]
        assert serial["recovery"] == vector["recovery"]
        assert serial["packed"] == vector["packed"]

    def test_different_seed_different_faults_same_bits(self, base_system):
        a = run_machine(base_system, "vectorized", faults={"drop": 0.4}, fault_seed=1)
        b = run_machine(base_system, "vectorized", faults={"drop": 0.4}, fault_seed=2)
        assert a["report"] != b["report"]
        assert a["packed"] == b["packed"]

    def test_persistent_link_failure_escalates_to_rollback(self, base_system):
        # A drop that outlives the whole retry budget is a dead link:
        # the step must be rolled back and replayed, and still converge.
        schedule = FaultSchedule(
            events=[FaultEvent(step=4, kind="drop", index=2, persist=99)]
        )
        clean = run_machine(base_system, "vectorized")
        chaos = run_machine(base_system, "vectorized", faults=schedule)
        assert chaos["report"]["link_failures"] == 1
        assert chaos["report"]["rollbacks"] == 1
        assert clean["packed"] == chaos["packed"]


class TestDurableArtifacts:
    def test_artifacts_byte_identical_after_crashes(self, base_system, tmp_path):
        def artifacts(label, faults):
            store = CheckpointStore(tmp_path / label, retain=4)
            traj_path = tmp_path / f"{label}.rrs"
            machine = AntonMachine(
                base_system.copy(), PARAMS, n_nodes=8, dt=1.0,
                backend="vectorized", faults=faults, fault_seed=3,
            )
            try:
                with machine.open_trajectory(traj_path) as traj:
                    machine.run(
                        12,
                        trajectory=traj,
                        trajectory_every=2,
                        checkpoint_store=store,
                        checkpoint_every=4,
                    )
                report = machine.fault_report()
            finally:
                machine.close()
            snaps = {p.name: p.read_bytes() for p in sorted((tmp_path / label).iterdir())}
            return traj_path.read_bytes(), snaps, report

        clean_traj, clean_snaps, _ = artifacts("clean", None)
        chaos_traj, chaos_snaps, report = artifacts("chaos", {"crash": 2, "drop": 0.2})

        assert report["crashes"] == 2 and report["rollbacks"] >= 2
        assert chaos_traj == clean_traj
        assert list(chaos_snaps) == list(clean_snaps)
        for name in clean_snaps:
            assert chaos_snaps[name] == clean_snaps[name], name


class TestRapidRollbackLoops:
    def test_retain_one_survives_back_to_back_crashes(self, base_system, tmp_path):
        # Tightest possible ring: one durable snapshot, written every
        # step, with crashes on consecutive steps.  load_latest must
        # never consume/prune the snapshot it restores from, so each
        # rollback lands on the newest surviving step.
        events = [FaultEvent(step=s, kind="crash") for s in (5, 6, 7)]
        clean = run_machine(base_system, "vectorized")

        store = CheckpointStore(tmp_path / "ck", retain=1)
        chaos = run_machine(
            base_system,
            "vectorized",
            faults=FaultSchedule(events=events),
            checkpoint_store=store,
            checkpoint_every=1,
        )
        assert chaos["report"]["rollbacks"] == 3
        assert chaos["codes"][0].tobytes() == clean["codes"][0].tobytes()
        assert chaos["codes"][1].tobytes() == clean["codes"][1].tobytes()
        assert store.steps() == [10]  # retain=1: only the newest survives

    def test_memory_ring_retain_one_rapid_crashes(self, base_system):
        # Same property for the in-memory ring (no durable store): the
        # policy's retain=1 ring must keep serving rollbacks.
        events = [FaultEvent(step=s, kind="crash") for s in (3, 4, 5, 6)]
        clean = run_machine(base_system, "vectorized")
        chaos = run_machine(
            base_system,
            "vectorized",
            faults=FaultSchedule(events=events),
            recovery=RecoveryPolicy(checkpoint_every=1, retain=1),
        )
        assert chaos["report"]["rollbacks"] == 4
        assert chaos["packed"] == clean["packed"]

    def test_crash_before_any_checkpoint_falls_back_to_baseline(self, base_system):
        clean = run_machine(base_system, "vectorized", steps=6)
        chaos = run_machine(
            base_system,
            "vectorized",
            steps=6,
            faults=FaultSchedule(events=[FaultEvent(step=1, kind="crash")]),
            recovery=RecoveryPolicy(checkpoint_every=100),
        )
        assert chaos["report"]["rollbacks"] == 1
        assert chaos["packed"] == clean["packed"]

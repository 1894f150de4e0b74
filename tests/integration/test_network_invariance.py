"""Integration: the routed fabric changes accounting, never physics.

``routed=True`` attaches a LinkRouter that expands every message into
per-link traversals of the torus.  The hard contract: trajectories and
checkpoints are byte-identical with the model on or off, across
execution backends and kernel tiers; a faulted routed run keeps its
primary link loads exactly equal to the clean run's (retransmissions
are segregated); and tree multicast measurably cuts the position-
broadcast link bytes relative to unicast fan-out.
"""

import numpy as np
import pytest

from repro.core import MDParams, minimize_energy
from repro.io import CheckpointStore
from repro.io.serialize import pack_state
from repro.kernels import available
from repro.machine import AntonMachine
from repro.network import RoutedConfig
from repro.systems import build_water_box
from tests.serial_backend import machine_backend

MACHINE_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=2,
)

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)


@pytest.fixture(scope="module")
def base_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, MACHINE_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def make_machine(base_system, routed, **kwargs):
    return AntonMachine(
        base_system.copy(), MACHINE_PARAMS, n_nodes=8, dt=1.0,
        backend=machine_backend(kwargs.pop("backend", "vectorized")), routed=routed,
        **kwargs,
    )


class TestTimingOnlyContract:
    def test_artifacts_byte_identical_routed_on_off(self, base_system, tmp_path):
        """Trajectory and checkpoint files on disk don't know whether
        the routed model was attached."""
        paths = {}
        for label, routed in (("off", False), ("on", True)):
            machine = make_machine(base_system, routed)
            traj_path = tmp_path / f"{label}.traj"
            store = CheckpointStore(tmp_path / f"ck_{label}")
            try:
                with machine.open_trajectory(traj_path) as traj:
                    machine.run(
                        6, trajectory=traj, trajectory_every=2,
                        checkpoint_store=store, checkpoint_every=3,
                    )
                paths[label] = (traj_path, [store.path_for(s) for s in store.steps()])
            finally:
                machine.close()
        traj_off, cks_off = paths["off"]
        traj_on, cks_on = paths["on"]
        assert traj_off.read_bytes() == traj_on.read_bytes()
        assert len(cks_off) == len(cks_on) == 2
        for a, b in zip(cks_off, cks_on):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_state_unchanged_per_backend(self, base_system, backend):
        out = {}
        for routed in (False, True):
            machine = make_machine(base_system, routed, backend=backend)
            try:
                machine.run(4)
                out[routed] = pack_state(machine.checkpoint())
            finally:
                machine.close()
        assert out[False] == out[True]

    @needs_compiler
    def test_state_unchanged_on_compiled_tier(self, base_system):
        out = {}
        for routed in (False, True):
            machine = make_machine(base_system, routed, kernel_tier="compiled")
            try:
                machine.run(4)
                assert machine.backend.kernels.tier == "compiled"
                out[routed] = pack_state(machine.checkpoint())
            finally:
                machine.close()
        assert out[False] == out[True]

    def test_routing_configs_do_not_change_state(self, base_system):
        """Multicast mode and compression are accounting transforms."""
        configs = [
            False,
            RoutedConfig(multicast="unicast"),
            RoutedConfig(delta_bits=16),
        ]
        packed = []
        for routed in configs:
            machine = make_machine(base_system, routed)
            try:
                machine.run(4)
                packed.append(pack_state(machine.checkpoint()))
            finally:
                machine.close()
        assert packed[0] == packed[1] == packed[2]


class TestLinkLoadInvariance:
    def test_serial_and_vectorized_route_identically(self, base_system):
        """Both backends group position import by source node, so the
        routed link loads agree link for link, not just in total."""
        loads = {}
        for backend in ("serial", "vectorized"):
            machine = make_machine(base_system, True, backend=backend)
            try:
                machine.run(4)
                loads[backend] = (
                    machine.router.primary.bytes.copy(),
                    machine.router.primary.packets.copy(),
                )
            finally:
                machine.close()
        assert np.array_equal(loads["serial"][0], loads["vectorized"][0])
        assert np.array_equal(loads["serial"][1], loads["vectorized"][1])

    def test_conservation_on_a_real_run(self, base_system):
        machine = make_machine(base_system, True)
        try:
            machine.run(4)
            r = machine.router
            lhs = (
                r.primary.total_bytes()
                + r.multicast_saved_hop_bytes
                + r.compression_saved_hop_bytes
            )
            assert lhs == machine.network.stats.hop_bytes
        finally:
            machine.close()

    def test_tree_multicast_cuts_position_broadcast_bytes(self, base_system):
        """The NT position broadcast costs fewer link bytes under the
        spanning tree than under unicast fan-out."""
        by_tag = {}
        for mode in ("tree", "unicast"):
            machine = make_machine(base_system, RoutedConfig(multicast=mode))
            try:
                machine.run(4)
                by_tag[mode] = int(
                    machine.router.by_tag["position_import"].bytes.sum()
                )
            finally:
                machine.close()
        assert by_tag["tree"] < by_tag["unicast"]


class TestFaultedRouting:
    def test_faulted_primary_loads_match_clean_run(self, base_system):
        """Retransmit and replay traffic routes over the fabric, but in
        the recovery pool: the faulted run's primary link loads are the
        clean run's, byte for byte."""
        clean = make_machine(base_system, True)
        try:
            clean.run(8)
            clean_primary = clean.router.primary.bytes.copy()
            clean_state = pack_state(clean.checkpoint())
        finally:
            clean.close()

        chaos = make_machine(
            base_system, True, faults={"drop": 2, "corrupt": 1}, fault_seed=3
        )
        try:
            chaos.run(8)
            assert chaos.fault_report()["injected"] > 0
            assert chaos.network.recovery_router.primary.total_bytes() > 0
            assert chaos.network_report()["recovery_link_bytes"] > 0
            assert np.array_equal(chaos.router.primary.bytes, clean_primary)
            assert pack_state(chaos.checkpoint()) == clean_state
        finally:
            chaos.close()


class TestProfileShape:
    def test_profile_exposes_network_section(self, base_system):
        machine = make_machine(base_system, True)
        try:
            machine.run(4)
            prof = machine.profile()
        finally:
            machine.close()
        assert "network" in prof
        report = prof["network"]
        assert report["topology"] == [2, 2, 2]
        assert report["links"] == 8 * 6
        assert report["steps"] == 4
        for tag in ("position_import", "force_export"):
            assert tag in report["phases"]
        assert report["comm_us_per_step"] > 0.0

    def test_unrouted_machine_has_no_network_section(self, base_system):
        machine = make_machine(base_system, False)
        try:
            machine.run(2)
            assert "network" not in machine.profile()
            with pytest.raises(ValueError):
                machine.network_report()
        finally:
            machine.close()

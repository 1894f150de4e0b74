"""Machine-level exact time reversibility (paper Section 4).

Velocity Verlet in fixed point is bit-exactly reversible: the kick
reads only positions, the drift reads only velocities, and round-to-
nearest-even is odd-symmetric — so running N steps, negating the
momenta, and running N more returns the *exact* integer start state.
These tests pin that property for the whole machine simulator (spatial
decomposition, migration, the GSE mesh path), not just the bare
integrator, and — because recovery replays the same integer arithmetic
— for a forward leg that healed through injected faults.

Reversibility requires the symmetric integrator only: no constraints,
no thermostat, and ``long_range_every=1`` (an MTS impulse schedule is
not symmetric about an arbitrary turning point).
"""

import numpy as np
import pytest

from repro.core import ChemicalSystem, MDParams, minimize_energy
from repro.fault import FaultSchedule
from repro.forcefield import LJTable, Topology
from repro.geometry import Box
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.serial_backend import machine_backend


def argon_system(n_side=4, spacing=3.8, temperature=120.0, seed=5):
    n = n_side**3
    box = Box.cubic(n_side * spacing + 1.0)
    grid = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    s = ChemicalSystem(
        box=box,
        positions=grid * spacing + 1.0,
        masses=np.full(n, 39.948),
        charges=np.zeros(n),
        type_ids=np.zeros(n, np.int64),
        lj=LJTable([3.4], [0.238]),
        topology=Topology(n),
    )
    s.initialize_velocities(temperature, seed=seed)
    return s


ARGON_PARAMS = MDParams(cutoff=7.0, mesh=(16, 16, 16), long_range_every=1)

WATER_PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    long_range_every=1,
)


@pytest.fixture(scope="module")
def water_system():
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, WATER_PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def reverse_roundtrip(machine, n_steps):
    """Run forward, negate momenta, run back; returns (start, end) codes."""
    x0, v0 = machine.integrator.state_codes()
    machine.run(n_steps)
    x_mid, _ = machine.integrator.state_codes()
    assert not np.array_equal(x0, x_mid)  # actually moved
    machine.integrator.negate_velocities()
    machine.run(n_steps)
    machine.integrator.negate_velocities()
    x1, v1 = machine.integrator.state_codes()
    return (x0, v0), (x1, v1)


class TestMachineReversibility:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_argon_forward_backward_recovers_initial_bits(self, backend):
        machine = AntonMachine(
            argon_system(), ARGON_PARAMS, n_nodes=8, dt=2.0,
            constraints=False, backend=machine_backend(backend),
        )
        try:
            (x0, v0), (x1, v1) = reverse_roundtrip(machine, 30)
        finally:
            machine.close()
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(v0, v1)

    def test_charged_system_mesh_path_reversible(self, water_system):
        # Full electrostatics: charge spreading, the distributed FFT
        # solve, and force interpolation are all position-only, so the
        # mesh path preserves the integrator's exact reversibility.
        machine = AntonMachine(
            water_system.copy(), WATER_PARAMS, n_nodes=8, dt=0.5,
            constraints=False, backend="vectorized",
        )
        try:
            (x0, v0), (x1, v1) = reverse_roundtrip(machine, 16)
        finally:
            machine.close()
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(v0, v1)

    def test_reversible_through_fault_recovery(self):
        # The forward leg heals drops, duplicates, and a crash; if
        # recovery is truly bit-invisible, the backward leg still walks
        # home to the exact start state.
        machine = AntonMachine(
            argon_system(), ARGON_PARAMS, n_nodes=8, dt=2.0,
            constraints=False, backend="vectorized",
            faults=FaultSchedule(seed=7, rates={"drop": 0.3, "duplicate": 0.2, "crash": 1}),
        )
        try:
            (x0, v0), (x1, v1) = reverse_roundtrip(machine, 20)
            report = machine.fault_report()
        finally:
            machine.close()
        assert report["rollbacks"] >= 1  # recovery actually exercised
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(v0, v1)

    def test_mts_impulse_lattice_is_mirror_symmetric(self):
        # long_range_every=2 pins mesh impulses to absolute even steps,
        # and the time-reversal map s -> 2N - s sends even steps to even
        # steps — so even the MTS schedule walks home bit-exactly (the
        # impulse lattice is self-mirroring about any integer turning
        # point, N odd or even).
        params = MDParams(cutoff=7.0, mesh=(16, 16, 16), long_range_every=2)
        system = argon_system()
        system.charges = np.linspace(-0.1, 0.1, system.n_atoms)  # need mesh forces
        machine = AntonMachine(
            system, params, n_nodes=8, dt=2.0, constraints=False,
            backend="vectorized",
        )
        try:
            (x0, v0), (x1, v1) = reverse_roundtrip(machine, 15)
        finally:
            machine.close()
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(v0, v1)

    def test_thermostat_breaks_reversibility(self):
        # The paper's qualifier, machine-level: velocity rescaling is
        # dissipative, so the round trip must NOT come home.
        from repro.core import BerendsenThermostat

        machine = AntonMachine(
            argon_system(temperature=80.0), ARGON_PARAMS, n_nodes=8, dt=2.0,
            constraints=False, backend="vectorized",
            thermostat=BerendsenThermostat(300.0, tau=50.0),
        )
        try:
            x0, _ = machine.integrator.state_codes()
            machine.run(15)
            machine.integrator.negate_velocities()
            machine.run(15)
            x1, _ = machine.integrator.state_codes()
        finally:
            machine.close()
        assert not np.array_equal(x0, x1)

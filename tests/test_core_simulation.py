"""Unit tests for the Simulation driver and minimizer."""

import numpy as np
import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.systems import build_water_box

PARAMS = MDParams(cutoff=4.2, mesh=(16, 16, 16))


@pytest.fixture(scope="module")
def relaxed_water():
    s = build_water_box(n_molecules=24, seed=9)
    minimize_energy(s, PARAMS, max_steps=50)
    s.initialize_velocities(300.0, seed=10)
    return s


class TestMinimizer:
    def test_reduces_energy(self):
        from repro.core import ForceCalculator

        s = build_water_box(n_molecules=24, seed=11)
        e0 = ForceCalculator(s, PARAMS).compute(s.positions).potential_energy
        e1 = minimize_energy(s, PARAMS, max_steps=50)
        assert e1 < e0

    def test_respects_constraints(self):
        from repro.core import ConstraintSolver

        s = build_water_box(n_molecules=24, seed=12)
        minimize_energy(s, PARAMS, max_steps=50)
        solver = ConstraintSolver(s.topology, s.masses, s.box)
        assert solver.max_residual(s.positions) < 1e-6

    def test_converges_on_force_tolerance(self):
        s = build_water_box(n_molecules=8, seed=13)
        minimize_energy(s, MDParams(cutoff=3.0, mesh=(16, 16, 16)), max_steps=500)
        from repro.core import ForceCalculator

        f = ForceCalculator(s, MDParams(cutoff=3.0, mesh=(16, 16, 16))).compute(s.positions).forces
        # Not guaranteed to hit tolerance within the step cap, but must
        # be far from the initial clash regime.
        assert np.max(np.abs(f)) < 1e3


class TestSimulation:
    def test_energy_log_and_snapshots(self, relaxed_water):
        sim = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="fixed")
        recs = sim.run(20, record_every=5, snapshot_every=10)
        assert len(recs) == 4
        assert len(sim.snapshots) == 2
        assert sim.snapshot_steps == [10, 20]
        assert recs[0].step == 5 and recs[-1].step == 20

    def test_run_returns_only_new_records(self, relaxed_water):
        sim = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="fixed")
        first = sim.run(10, record_every=5)
        second = sim.run(10, record_every=5)
        assert len(first) == 2 and len(second) == 2
        assert len(sim.energy_log) == 4

    def test_invalid_mode(self, relaxed_water):
        with pytest.raises(ValueError):
            Simulation(relaxed_water.copy(), PARAMS, mode="quantum")

    def test_float_and_fixed_agree_initially(self, relaxed_water):
        fx = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="fixed")
        fl = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="float")
        fx.run(5)
        fl.run(5)
        assert np.max(np.abs(fx.positions - fl.positions)) < 1e-5

    def test_constraints_maintained_during_run(self, relaxed_water):
        sim = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="fixed")
        sim.run(15)
        assert sim.constraint_solver.max_residual(sim.positions) < 1e-6

    def test_positions_stay_in_box(self, relaxed_water):
        sim = Simulation(relaxed_water.copy(), PARAMS, dt=1.0, mode="fixed")
        sim.run(15)
        assert np.all(sim.positions >= 0)
        assert np.all(sim.positions < relaxed_water.box.lengths)

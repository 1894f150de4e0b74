"""Unit tests for the integrators and the Section 4 numerics claims."""

import numpy as np
import pytest

from repro.core import (
    BerendsenThermostat,
    ChemicalSystem,
    MDParams,
    PositionCodec,
    Simulation,
)
from repro.forcefield import LJTable, Topology
from repro.geometry import Box


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


ARGON_PARAMS = MDParams(cutoff=7.0, mesh=(16, 16, 16))


class TestPositionCodec:
    def test_roundtrip_resolution(self):
        box = Box.cubic(50.0)
        codec = PositionCodec(box, bits=40)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 50, (100, 3))
        back = codec.decode(codec.encode(pos))
        assert np.max(np.abs(back - pos)) <= 0.5 * np.max(codec.resolution)

    def test_advance_wraps_like_pbc(self):
        box = Box.cubic(10.0)
        codec = PositionCodec(box, bits=16)
        x = codec.encode(np.array([[9.9, 0.1, 5.0]]))
        step = np.array([[300, -800, 0]], dtype=np.int64)  # ~0.05 A steps
        out = codec.decode(codec.advance(x, step))
        assert 0.0 <= out[0, 0] < 10.0
        assert 0.0 <= out[0, 1] < 10.0

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            PositionCodec(Box.cubic(10.0), bits=4)

    @pytest.mark.parametrize("bits", [8, 16, 39, 40, 41, 62])
    def test_mask_is_np_mod_at_the_int64_extremes(self, bits):
        """The codec reduces by ``& (2**bits - 1)``: ``np.mod`` by a power
        of two on every int64 (DESIGN.md, power-of-two modulus lemma)."""
        codec = PositionCodec(Box.cubic(10.0), bits=bits)
        i64 = np.iinfo(np.int64)
        m = 1 << bits
        edges = [i64.min, i64.min + 1, -m - 1, -m, -m + 1, -1, 0, 1,
                 m - 1, m, m + 1, 2**62, i64.max - 1, i64.max]
        rng = np.random.default_rng(bits)
        v = np.concatenate([np.array(edges, dtype=np.int64),
                            rng.integers(i64.min, i64.max, 1000, endpoint=True)])
        np.testing.assert_array_equal(v & codec.mask, np.mod(v, codec.modulus))
        # advance: the int64 sum may wrap before the reduction.
        delta = np.roll(v, 3)
        with np.errstate(over="ignore"):
            want = np.mod(v + delta, codec.modulus)
        np.testing.assert_array_equal(codec.advance(v, delta), want)

    def test_encode_matches_the_mod_form(self):
        box = Box(np.array([7.0, 37.04851869, 11.5]))
        codec = PositionCodec(box, bits=40)
        rng = np.random.default_rng(3)
        pos = rng.uniform(-3.0, 3.0, (300, 3)) * box.lengths
        pos[:4] = [np.nextafter(box.lengths, 0.0), box.lengths, -box.lengths, [0.0, -0.0, 1e-300]]
        want = np.mod(np.rint(box.wrap(pos) * codec.scale).astype(np.int64), codec.modulus)
        np.testing.assert_array_equal(codec.encode(pos), want)
        assert codec.encode(pos).max() < codec.modulus  # rint can reach 2**bits: masked to 0


class TestEnergyConservation:
    def test_fixed_point_nve(self):
        s = argon_system()
        sim = Simulation(s, ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False)
        recs = sim.run(150, record_every=25)
        energies = [r.total for r in recs]
        assert abs(energies[-1] - energies[0]) < 2e-3 * abs(np.mean(energies)) + 1e-3

    def test_float_nve(self):
        s = argon_system()
        sim = Simulation(s, ARGON_PARAMS, dt=2.0, mode="float", constraints=False)
        recs = sim.run(150, record_every=25)
        energies = [r.total for r in recs]
        assert abs(energies[-1] - energies[0]) < 2e-3 * abs(np.mean(energies)) + 1e-3

    def test_fixed_matches_float_closely(self):
        s1 = argon_system()
        s2 = s1.copy()
        sim_fx = Simulation(s1, ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False)
        sim_fl = Simulation(s2, ARGON_PARAMS, dt=2.0, mode="float", constraints=False)
        sim_fx.run(20)
        sim_fl.run(20)
        # Fixed-point quantization perturbs the chaotic trajectory only
        # slightly over 20 steps.
        assert np.max(np.abs(sim_fx.positions - sim_fl.positions)) < 1e-4


class TestDeterminism:
    def test_bitwise_identical_reruns(self):
        s = argon_system()
        runs = []
        for _ in range(2):
            sim = Simulation(s.copy(), ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False)
            sim.run(40)
            runs.append(sim.integrator.state_codes())
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_determinism_with_thermostat_and_constraints(self):
        from repro.systems import build_water_box

        base = build_water_box(n_molecules=16, seed=0)
        base.initialize_velocities(300.0, seed=1)
        params = MDParams(cutoff=3.5, mesh=(16, 16, 16))
        runs = []
        for _ in range(2):
            sim = Simulation(
                base.copy(), params, dt=1.0, mode="fixed",
                thermostat=BerendsenThermostat(300.0),
            )
            sim.run(10)
            runs.append(sim.integrator.state_codes())
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestExactReversibility:
    def test_forward_backward_recovers_initial_bits(self):
        # The paper's experiment (Section 4) at reduced scale: run, negate
        # velocities, run again, recover the start bit-for-bit.
        s = argon_system()
        sim = Simulation(s, ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False)
        x0, v0 = sim.integrator.state_codes()
        sim.run(60)
        x_mid, _ = sim.integrator.state_codes()
        assert not np.array_equal(x0, x_mid)  # actually moved
        sim.integrator.negate_velocities()
        sim.run(60)
        sim.integrator.negate_velocities()
        x1, v1 = sim.integrator.state_codes()
        assert np.array_equal(x0, x1)
        assert np.array_equal(v0, v1)

    def test_thermostat_breaks_reversibility(self):
        # Confirms the paper's qualifier: reversible only *without*
        # temperature control.
        s = argon_system(temperature=80.0)
        sim = Simulation(
            s, ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False,
            thermostat=BerendsenThermostat(300.0, tau=50.0),
        )
        x0, _ = sim.integrator.state_codes()
        sim.run(30)
        sim.integrator.negate_velocities()
        sim.run(30)
        x1, _ = sim.integrator.state_codes()
        assert not np.array_equal(x0, x1)


class TestMTS:
    def test_long_range_every_two_tracks_single_rate(self):
        from repro.systems import build_water_box
        from repro.core import minimize_energy

        base = build_water_box(n_molecules=27, seed=3)
        params1 = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=1)
        minimize_energy(base, params1, max_steps=40)
        base.initialize_velocities(300.0, seed=4)
        params2 = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=2)
        sim1 = Simulation(base.copy(), params1, dt=1.0, mode="fixed")
        sim2 = Simulation(base.copy(), params2, dt=1.0, mode="fixed")
        sim1.run(10)
        sim2.run(10)
        assert sim2.provider.long_evaluations == 6  # init + steps 2,4,..
        # MTS perturbs but does not derail the trajectory.
        assert np.max(np.abs(sim1.positions - sim2.positions)) < 0.05

    def test_thermostat_keeps_temperature(self):
        s = argon_system(temperature=120.0)
        sim = Simulation(
            s, ARGON_PARAMS, dt=2.0, mode="fixed", constraints=False,
            thermostat=BerendsenThermostat(60.0, tau=100.0),
        )
        sim.run(200)
        assert sim.integrator.temperature() < 90.0

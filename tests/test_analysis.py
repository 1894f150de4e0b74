"""Unit tests for the analysis package."""

import numpy as np
import pytest

from repro.analysis import (
    detect_folding_events,
    energy_drift,
    force_error,
    kabsch_align,
    nh_vectors,
    order_parameters,
    radius_of_gyration,
    rms_force,
)
from repro.core.simulation import EnergyRecord


def records_from(times_fs, energies):
    return [
        EnergyRecord(step=i, time_fs=t, kinetic=e / 2, potential=e / 2, temperature=300.0)
        for i, (t, e) in enumerate(zip(times_fs, energies))
    ]


class TestEnergyDrift:
    def test_linear_drift_recovered(self):
        t = np.linspace(0, 1e6, 50)  # 1 ns in fs
        e = 100.0 + 3.0 * (t / 1e9)  # 3 kcal/mol per us
        out = energy_drift(records_from(t, e), n_dof=10)
        assert out.drift_per_us == pytest.approx(3.0, rel=1e-6)
        assert out.drift_per_dof_per_us == pytest.approx(0.3, rel=1e-6)
        assert out.rms_fluctuation == pytest.approx(0.0, abs=1e-9)

    def test_noise_has_small_drift_large_fluctuation(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1e11, 200)  # 100 us span
        e = 50.0 + rng.normal(0, 0.5, 200)
        out = energy_drift(records_from(t, e), n_dof=10)
        assert abs(out.drift_per_us) < 2.0
        assert out.rms_fluctuation == pytest.approx(0.5, rel=0.3)

    def test_needs_three_records(self):
        with pytest.raises(ValueError):
            energy_drift(records_from([0, 1], [1, 2]), n_dof=3)


class TestForceError:
    def test_identical_forces(self):
        f = np.random.default_rng(1).normal(size=(20, 3))
        out = force_error(f, f)
        assert out.fraction == 0.0
        assert out.max_error == 0.0

    def test_known_fraction(self):
        ref = np.ones((10, 3))
        test = ref + 0.01
        out = force_error(test, ref)
        assert out.fraction == pytest.approx(0.01, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            force_error(np.ones((3, 3)), np.ones((4, 3)))

    def test_rms_force(self):
        assert rms_force(np.full((5, 3), 2.0)) == pytest.approx(2.0)


def aligned_rmsd(coords, reference):
    """RMSD to ``reference`` after :func:`kabsch_align` superposes ``coords``."""
    diff = kabsch_align(coords, reference) - reference
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


class TestKabschRMSD:
    def test_identical_is_zero(self):
        c = np.random.default_rng(2).normal(size=(15, 3))
        assert aligned_rmsd(c, c) == pytest.approx(0.0, abs=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(15, 3))
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        moved = c @ rot.T + np.array([3.0, -1.0, 2.0])
        assert aligned_rmsd(moved, c) == pytest.approx(0.0, abs=1e-9)

    def test_reflection_not_allowed(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=(15, 3))
        mirrored = c * np.array([-1.0, 1.0, 1.0])
        assert aligned_rmsd(mirrored, c) > 0.1

    def test_known_displacement(self):
        c = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        d = c.copy()
        d[0] += [0.3, 0, 0]
        assert 0.0 < aligned_rmsd(d, c) < 0.3


class TestRadiusOfGyration:
    def test_point_mass_zero(self):
        assert radius_of_gyration(np.zeros((5, 3))) == 0.0

    def test_ring(self):
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        ring = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        assert radius_of_gyration(ring) == pytest.approx(1.0, rel=1e-9)

    def test_mass_weighting(self):
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        rg_equal = radius_of_gyration(coords)
        rg_skew = radius_of_gyration(coords, masses=np.array([100.0, 1.0]))
        assert rg_skew < rg_equal


class TestOrderParameters:
    def test_rigid_vector_is_one(self):
        u = np.tile(np.array([[0.0, 0.0, 1.0]]), (50, 4, 1))
        np.testing.assert_allclose(order_parameters(u), 1.0)

    def test_isotropic_vector_near_zero(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(4000, 2, 3))
        u = v / np.linalg.norm(v, axis=2, keepdims=True)
        s2 = order_parameters(u)
        assert np.all(s2 < 0.1)

    def test_wobble_intermediate(self):
        # Vector wobbling in a cone: 0 < S2 < 1, decreasing with cone angle.
        rng = np.random.default_rng(6)

        def cone_s2(angle):
            n = 3000
            phi = rng.uniform(0, 2 * np.pi, n)
            ct = rng.uniform(np.cos(angle), 1.0, n)
            st = np.sqrt(1 - ct**2)
            u = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)[:, None, :]
            return order_parameters(u)[0]

        narrow = cone_s2(0.3)
        wide = cone_s2(1.2)
        # Uniform cone of half-angle theta: S2 = (cos(theta)(1+cos(theta))/2)^2.
        expected = (np.cos(0.3) * (1 + np.cos(0.3)) / 2) ** 2
        assert narrow == pytest.approx(expected, abs=0.03)
        assert wide < narrow

    def test_input_validation(self):
        with pytest.raises(ValueError):
            order_parameters(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            order_parameters(np.zeros((1, 2, 3)))

    def test_nh_vectors_normalized(self):
        snaps = [np.random.default_rng(7).normal(size=(6, 3)) for _ in range(3)]
        u = nh_vectors(snaps, np.array([0, 2]), np.array([1, 3]))
        np.testing.assert_allclose(np.linalg.norm(u, axis=2), 1.0)


class TestFoldingEvents:
    def test_square_wave(self):
        trace = np.array([5.0, 5.0, 1.0, 1.0, 5.0, 5.0, 1.0, 1.0, 5.0])
        events = detect_folding_events(trace, folded_below=2.0, unfolded_above=4.0)
        kinds = [e.kind for e in events]
        assert kinds == ["fold", "unfold", "fold", "unfold"]

    def test_hysteresis_suppresses_flicker(self):
        # Oscillation inside the hysteresis band: no events.
        trace = np.array([5.0, 3.0, 3.5, 2.9, 3.2, 3.1])
        events = detect_folding_events(trace, folded_below=2.0, unfolded_above=4.0)
        assert events == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            detect_folding_events(np.zeros(5), folded_below=3.0, unfolded_above=2.0)

    def test_initial_state_detected(self):
        trace = np.array([1.0, 1.0, 5.0])
        events = detect_folding_events(trace, folded_below=2.0, unfolded_above=4.0)
        assert [e.kind for e in events] == ["unfold"]

"""Unit tests for excluded-pair and 1-4 correction forces."""

import numpy as np
import pytest

from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    correction_forces_static,
    direct_ewald,
    precompute_correction_static,
    real_space_energy_kernel,
    self_energy,
)
from repro.forcefield import LJTable, Topology, build_exclusions
from repro.geometry import Box, brute_force_pairs
from repro.util import COULOMB
from tests.mesh_stencil import encode


class TestCorrectionForces:
    def _molecule_system(self):
        """A 4-atom chain (so it has 1-2, 1-3 and 1-4 pairs) plus two
        free ions, in a periodic box."""
        box = Box.cubic(18.0)
        pos = np.array(
            [
                [5.0, 5.0, 5.0],
                [6.4, 5.0, 5.0],
                [7.0, 6.3, 5.0],
                [8.4, 6.3, 5.6],
                [12.0, 12.0, 12.0],
                [3.0, 14.0, 9.0],
            ]
        )
        charges = np.array([0.3, -0.2, 0.25, -0.35, 0.5, -0.5])
        types = np.zeros(6, dtype=np.int64)
        lj = LJTable([2.8], [0.12])
        top = Topology(6)
        top.add_bond(0, 1, 300.0, 1.4)
        top.add_bond(1, 2, 300.0, 1.45)
        top.add_bond(2, 3, 300.0, 1.5)
        ex = build_exclusions(top)
        return box, pos, charges, ex, precompute_correction_static(charges, types, lj, ex)

    def test_pair_lists_complete(self):
        box, pos, charges, ex, static = self._molecule_system()
        out = correction_forces_static(pos, box, static, 2.0)
        # 3 bonds -> 3 x 1-2 + 2 x 1-3 exclusions, 1 x 1-4 pair.
        assert out.n_pairs == 5 + 1
        assert out.energy_14_lj != 0.0

    def test_corrected_total_matches_target_electrostatics(self):
        """The full pipeline (real + mesh + self + corrections) must
        equal direct Ewald over *non-excluded* pairs plus scaled 1-4."""
        box, pos, charges, ex, static = self._molecule_system()
        cutoff = 8.0
        params = GSEParams.choose(box, cutoff, (32, 32, 32), real_space_tolerance=1e-7)
        sigma = params.sigma
        gse = GaussianSplitEwald(box, params)

        pairs = brute_force_pairs(pos, box, cutoff)
        keep = ~ex.is_excluded(pairs.i, pairs.j)
        qq = charges[pairs.i[keep]] * charges[pairs.j[keep]]
        e_real = float(np.sum(qq * real_space_energy_kernel(pairs.r2[keep], sigma)))
        e_k, _ = gse.kspace(encode(gse, pos), charges)
        corr = correction_forces_static(pos, box, static, sigma)
        total_coul = e_real + e_k + self_energy(charges, sigma) + corr.energy_exclusion + corr.energy_14_coul

        # Target: direct Ewald of the same charges, minus the full
        # Coulomb of excluded pairs, with 1-4 at scale.
        ref = direct_ewald(pos, charges, box, sigma=1.8, real_images=1, kmax=16).energy
        for i, j in ex.excluded:
            r = box.distance(pos[i], pos[j])
            ref -= COULOMB * charges[i] * charges[j] / r
        for i, j in ex.pair14:
            r = box.distance(pos[i], pos[j])
            ref -= (1.0 - ex.coul_scale14) * COULOMB * charges[i] * charges[j] / r
        assert total_coul == pytest.approx(ref, abs=5e-3)

    def test_forces_match_numerical_gradient(self):
        box, pos, charges, ex, static = self._molecule_system()
        sigma = 2.0

        def energy(p):
            return correction_forces_static(p, box, static, sigma).energy

        out = correction_forces_static(pos, box, static, sigma)
        dense = np.zeros((6, 3))
        np.add.at(dense, out.i, out.force)
        np.add.at(dense, out.j, -out.force)
        h = 1e-6
        for a in range(4):
            for c in range(3):
                p1, p2 = pos.copy(), pos.copy()
                p1[a, c] += h
                p2[a, c] -= h
                num = -(energy(p1) - energy(p2)) / (2 * h)
                assert dense[a, c] == pytest.approx(num, abs=1e-4)

    def test_no_exclusions_no_corrections(self):
        box = Box.cubic(10.0)
        pos = np.random.default_rng(0).uniform(0, 10, (5, 3))
        charges = np.ones(5)
        ex = build_exclusions(Topology(5))
        static = precompute_correction_static(charges, np.zeros(5, np.int64), LJTable([3.0], [0.1]), ex)
        out = correction_forces_static(pos, box, static, 2.0)
        assert out.n_pairs == 0
        assert out.energy == 0.0

    def test_exclusion_energy_sign(self):
        # Subtracting the mesh part of a like-charge excluded pair
        # removes positive energy.
        box = Box.cubic(12.0)
        pos = np.array([[5.0, 5.0, 5.0], [6.2, 5.0, 5.0]])
        charges = np.array([0.4, 0.4])
        top = Topology(2)
        top.add_bond(0, 1, 100.0, 1.2)
        ex = build_exclusions(top)
        static = precompute_correction_static(charges, np.zeros(2, np.int64), LJTable([3.0], [0.1]), ex)
        out = correction_forces_static(pos, box, static, 2.0)
        assert out.energy_exclusion < 0


class TestStaticPrecompute:
    def _setup(self):
        box = Box.cubic(12.0)
        rng = np.random.default_rng(17)
        pos = rng.uniform(0, 12, (12, 3))
        charges = rng.uniform(-0.6, 0.6, 12)
        types = np.zeros(12, np.int64)
        lj = LJTable([3.0], [0.1])
        top = Topology(12)
        for a in range(0, 10):
            top.add_bond(a, a + 1, 100.0, 1.2)
        return box, pos, charges, types, lj, build_exclusions(top)

    def test_static_data_reusable_across_configurations(self):
        # One precompute serves every configuration: each result equals
        # the one from a fresh precompute, so a call leaves it unchanged.
        box, pos, charges, types, lj, ex = self._setup()
        static = precompute_correction_static(charges, types, lj, ex)
        rng = np.random.default_rng(18)
        for _ in range(3):
            pos = box.wrap(pos + rng.uniform(-0.5, 0.5, pos.shape))
            got = correction_forces_static(pos, box, static, 2.0)
            fresh = precompute_correction_static(charges, types, lj, ex)
            ref = correction_forces_static(pos, box, fresh, 2.0)
            np.testing.assert_array_equal(got.force, ref.force)
            assert got.energy == ref.energy

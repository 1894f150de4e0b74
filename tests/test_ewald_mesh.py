"""Unit tests for GSE and SPME mesh electrostatics."""

import numpy as np
import pytest

from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    SmoothPME,
    SPMEParams,
    bspline,
    choose_sigma,
    direct_ewald,
    real_space_energy_kernel,
    real_space_force_kernel,
    self_energy,
)
from repro.geometry import Box, brute_force_pairs
from tests.mesh_stencil import encode, potential


def random_neutral_system(n=40, side=20.0, seed=0):
    rng = np.random.default_rng(seed)
    box = Box.cubic(side)
    pos = rng.uniform(0, side, (n, 3))
    q = rng.uniform(-1, 1, n)
    q -= q.mean()
    return box, pos, q


def ewald_total(box, pos, q, cutoff, mesh_method):
    """Real-space + k-space + self, with the given mesh evaluator."""
    sigma = mesh_method.params.sigma
    pairs = brute_force_pairs(pos, box, cutoff)
    qq = q[pairs.i] * q[pairs.j]
    e_real = float(np.sum(qq * real_space_energy_kernel(pairs.r2, sigma)))
    f = np.zeros((len(pos), 3))
    pref = qq * real_space_force_kernel(pairs.r2, sigma)
    np.add.at(f, pairs.i, pref[:, None] * pairs.dx)
    np.add.at(f, pairs.j, -pref[:, None] * pairs.dx)
    # GSE reads position codes; the SPME ablation takes the floats.
    at = encode(mesh_method, pos) if isinstance(mesh_method, GaussianSplitEwald) else pos
    e_k, f_k = mesh_method.kspace(at, q)
    return e_real + e_k + self_energy(q, sigma), f + f_k


class TestGSEParams:
    def test_split_constraint_enforced(self):
        with pytest.raises(ValueError):
            GSEParams(sigma=1.0, sigma_s=0.8, mesh=(16, 16, 16), spreading_cutoff=3.0)

    def test_choose_respects_mesh_resolution(self):
        box = Box.cubic(32.0)
        p = GSEParams.choose(box, cutoff=9.0, mesh=(32, 32, 32))
        assert p.sigma_s >= 1.05 * 1.0  # h = 1 A

    def test_choose_rejects_impossible_combination(self):
        box = Box.cubic(64.0)
        with pytest.raises(ValueError):
            # 8^3 mesh on a 64 A box: h = 8 A, sigma_s floor >> sigma.
            GSEParams.choose(box, cutoff=9.0, mesh=(8, 8, 8))

    def test_mesh_minimum(self):
        with pytest.raises(ValueError):
            GSEParams(sigma=3.0, sigma_s=1.0, mesh=(2, 2, 2), spreading_cutoff=3.0)


class TestGSEAccuracy:
    def test_energy_and_forces_vs_direct_ewald(self):
        box, pos, q = random_neutral_system()
        params = GSEParams.choose(box, cutoff=9.0, mesh=(32, 32, 32), real_space_tolerance=1e-6)
        gse = GaussianSplitEwald(box, params)
        total, forces = ewald_total(box, pos, q, 9.0, gse)
        ref = direct_ewald(pos, q, box, sigma=2.0, real_images=1, kmax=16)
        frms = np.sqrt(np.mean(ref.forces**2))
        assert total == pytest.approx(ref.energy, rel=2e-4)
        assert np.sqrt(np.mean((forces - ref.forces) ** 2)) / frms < 1e-4

    def test_split_independence(self):
        # Different (cutoff, mesh) parameterizations agree on the total.
        box, pos, q = random_neutral_system(seed=3)
        g1 = GaussianSplitEwald(box, GSEParams.choose(box, 7.0, (32, 32, 32), 1e-6))
        g2 = GaussianSplitEwald(box, GSEParams.choose(box, 9.5, (32, 32, 32), 1e-6))
        e1, _ = ewald_total(box, pos, q, 7.0, g1)
        e2, _ = ewald_total(box, pos, q, 9.5, g2)
        assert e1 == pytest.approx(e2, rel=2e-4)

    def test_spread_conserves_charge(self):
        box, pos, q = random_neutral_system(n=20)
        gse = GaussianSplitEwald(box, GSEParams.choose(box, 9.0, (32, 32, 32)))
        Q = np.zeros(gse.mesh_point_count())
        gse.make_plan(encode(gse, pos)).spread_float(q, Q)
        # Gaussian weights integrate to ~1 on the mesh.
        assert float(Q.sum()) == pytest.approx(float(q.sum()), abs=1e-6 * np.abs(q).sum() + 1e-9)

    def test_kspace_forces_sum_to_nearly_zero(self):
        # Gaussian spreading is not an exact partition of unity (unlike
        # B-splines), so momentum conservation holds only to the
        # truncation/aliasing error, ~1e-4 of typical force magnitudes.
        box, pos, q = random_neutral_system(n=25, seed=5)
        gse = GaussianSplitEwald(box, GSEParams.choose(box, 9.0, (32, 32, 32)))
        _, f = gse.kspace(encode(gse, pos), q)
        frms = np.sqrt(np.mean(f**2))
        assert np.max(np.abs(f.sum(axis=0))) < 1e-3 * max(frms, 1.0) + 1e-6

    def test_interpolate_potential_consistent_with_energy(self):
        box, pos, q = random_neutral_system(n=18, seed=9)
        gse = GaussianSplitEwald(box, GSEParams.choose(box, 9.0, (32, 32, 32)))
        plan = gse.make_plan(encode(gse, pos))
        Q = np.zeros(gse.mesh_point_count())
        plan.spread_float(q, Q)
        phi, energy = gse.solve(Q.reshape(tuple(gse.mesh)))
        phi_i = potential(plan, phi)
        assert 0.5 * float(np.dot(q, phi_i)) == pytest.approx(energy, rel=1e-6)


class TestBSpline:
    def test_partition_of_unity(self):
        # Shifted B-splines sum to 1 everywhere.
        for order in (3, 4, 6):
            u = np.linspace(0, 1, 11)
            total = sum(bspline(u + k, order) for k in range(order))
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_support(self):
        assert bspline(np.array([-0.1]), 4)[0] == 0.0
        assert bspline(np.array([4.1]), 4)[0] == 0.0
        assert bspline(np.array([2.0]), 4)[0] > 0.5  # peak at center

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bspline(np.array([0.5]), 1)


class TestSPME:
    def test_accuracy_vs_direct_ewald(self):
        box, pos, q = random_neutral_system(seed=11)
        sigma = choose_sigma(9.0, 1e-6)
        spme = SmoothPME(box, SPMEParams(sigma=sigma, mesh=(32, 32, 32), order=6))
        total, forces = ewald_total(box, pos, q, 9.0, spme)
        ref = direct_ewald(pos, q, box, sigma=2.0, real_images=1, kmax=16)
        frms = np.sqrt(np.mean(ref.forces**2))
        assert total == pytest.approx(ref.energy, rel=1e-4)
        assert np.sqrt(np.mean((forces - ref.forces) ** 2)) / frms < 1e-4

    def test_finer_mesh_more_accurate(self):
        box, pos, q = random_neutral_system(seed=13)
        sigma = choose_sigma(9.0, 1e-6)
        ref = direct_ewald(pos, q, box, sigma=2.0, real_images=1, kmax=16)
        errs = []
        for mesh in (16, 32, 64):
            spme = SmoothPME(box, SPMEParams(sigma=sigma, mesh=(mesh,) * 3, order=4))
            _, forces = ewald_total(box, pos, q, 9.0, spme)
            errs.append(np.sqrt(np.mean((forces - ref.forces) ** 2)))
        assert errs[2] < errs[1] < errs[0]

    def test_spread_conserves_charge_exactly(self):
        # B-splines are an exact partition of unity.
        box, pos, q = random_neutral_system(n=20, seed=15)
        spme = SmoothPME(box, SPMEParams(sigma=2.0, mesh=(16, 16, 16), order=4))
        Q = spme.spread(pos, q)
        assert float(Q.sum()) == pytest.approx(float(q.sum()), abs=1e-10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SPMEParams(sigma=2.0, mesh=(16, 16, 16), order=2)
        with pytest.raises(ValueError):
            SPMEParams(sigma=2.0, mesh=(4, 16, 16), order=6)

    def test_gse_vs_spme_same_physics(self):
        # The ablation pair: both methods evaluate the same k-space sum.
        box, pos, q = random_neutral_system(seed=17)
        sigma = choose_sigma(9.0, 1e-6)
        gse = GaussianSplitEwald(box, GSEParams.choose(box, 9.0, (32, 32, 32), 1e-6))
        spme = SmoothPME(box, SPMEParams(sigma=sigma, mesh=(32, 32, 32), order=6))
        e_g, _ = ewald_total(box, pos, q, 9.0, gse)
        e_s, _ = ewald_total(box, pos, q, 9.0, spme)
        assert e_g == pytest.approx(e_s, rel=2e-4)

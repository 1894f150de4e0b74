"""Regression tests for the GSE fast paths against a direct reference.

The separable-weight and einsum-interpolation optimizations must be
bitwise-consistent where parallel invariance depends on it, and
numerically identical to a straightforward dense evaluation.
"""

import math

import numpy as np
import pytest

from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import Box, PositionCodec
from tests.mesh_stencil import encode, stencil


@pytest.fixture(scope="module")
def gse():
    box = Box.cubic(20.0)
    return GaussianSplitEwald(box, GSEParams.choose(box, 8.0, (32, 32, 32)))


@pytest.fixture(scope="module")
def atoms():
    rng = np.random.default_rng(17)
    pos = rng.uniform(0, 20, (23, 3))
    q = rng.uniform(-1, 1, 23)
    q -= q.mean()
    return pos, q


def dense_reference_weights(gse, positions):
    """Direct (non-separable) evaluation of the stencil weights, at the
    positions the plan's codes stand for."""
    p = gse.params
    positions = gse.box.wrap(encode(gse, positions) / PositionCodec(gse.box).scale)
    base = np.floor(positions / gse.h).astype(np.int64)
    nc = gse._offsets
    ranges = [np.arange(-c, c + 1) for c in nc]
    OX, OY, OZ = np.meshgrid(*ranges, indexing="ij")
    off = np.stack([OX.ravel(), OY.ravel(), OZ.ravel()], axis=1)
    cells = base[:, None, :] + off[None, :, :]
    d = positions[:, None, :] - cells * gse.h
    r2 = np.sum(d * d, axis=2)
    norm = (2.0 * math.pi * p.sigma_s**2) ** -1.5
    w = norm * np.exp(-r2 / (2.0 * p.sigma_s**2)) * gse.cell_volume
    w[r2 > p.spreading_cutoff**2] = 0.0
    wrapped = np.mod(cells, gse.mesh)
    flat = (wrapped[..., 0] * gse.mesh[1] + wrapped[..., 1]) * gse.mesh[2] + wrapped[..., 2]
    return flat, w, d


class TestSeparableWeights:
    def test_weights_match_dense_reference(self, gse, atoms):
        pos, _q = atoms
        plan = gse.make_plan(encode(gse, pos))
        w_f, flat_f = stencil(plan)
        flat_r, w_r, d_r = dense_reference_weights(gse, pos)
        # Same stencil enumeration order (x-major cube), same values.
        np.testing.assert_array_equal(flat_f, flat_r)
        np.testing.assert_allclose(w_f, w_r, rtol=1e-13, atol=1e-300)
        kx, ky, kz = plan.shape
        d_r = d_r.reshape(len(pos), kx, ky, kz, 3)
        np.testing.assert_allclose(plan.axis_d[0], d_r[:, :, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(plan.axis_d[1], d_r[:, 0, :, 0, 1], atol=1e-12)
        np.testing.assert_allclose(plan.axis_d[2], d_r[:, 0, 0, :, 2], atol=1e-12)

    def test_fast_kspace_matches_chunked_path(self, gse, atoms):
        # kspace (the one-lane mesh_pass: stacked solve, lane views)
        # against its pieces run by hand on one plan.
        pos, q = atoms
        e_fast, f_fast = gse.kspace(encode(gse, pos), q)
        plan = gse.make_plan(encode(gse, pos))
        Q = np.zeros(gse.mesh_point_count())
        plan.spread_float(q, Q)
        phi, e_slow = gse.solve(Q.reshape(tuple(gse.mesh)))
        f_slow = plan.interpolate_forces(q, phi)
        assert e_fast == pytest.approx(e_slow, rel=1e-12)
        np.testing.assert_allclose(f_fast, f_slow, atol=1e-12)

    def test_fast_kspace_quantized_matches_contributions_path(self, gse, atoms):
        """Parallel invariance depends on this: one plan over every atom
        and one plan per atom subset, depositing into a shared
        accumulator (the machine-style split), produce the same
        quantized mesh bits."""
        pos, q = atoms
        codec = ScaledFixed(FixedFormat(40), limit=8.0)
        acc = np.zeros(gse.mesh_point_count(), dtype=np.int64)
        gse.make_plan(encode(gse, pos[:11])).spread_codes(q[:11], acc, codec)
        gse.make_plan(encode(gse, pos[11:])).spread_codes(q[11:], acc, codec)
        whole = np.zeros_like(acc)
        gse.make_plan(encode(gse, pos)).spread_codes(q, whole, codec)
        np.testing.assert_array_equal(codec.wrap(acc), codec.wrap(whole))

    def test_energy_via_fast_path_accurate(self, gse, atoms):
        pos, q = atoms
        e, _f = gse.kspace(encode(gse, pos), q)
        assert np.isfinite(e)

    def test_stencil_size_consistent(self, gse):
        w, flat = stencil(gse.make_plan(encode(gse, np.array([[10.0, 10.0, 10.0]]))))
        assert flat.shape[1] == gse.stencil_size()
        # The spherical cutoff zeroes the cube corners.
        assert np.count_nonzero(w) < gse.stencil_size()


class TestSmallestMesh:
    """``GSEParams.smallest_mesh``: the mesh rule of the CLI and of serve jobs."""

    def test_boxes_the_old_fixed_mesh_fit_keep_it(self):
        # The CLI's cutoffs (simulate / ensemble / serve: 5.5, machine:
        # 4.5, each capped at 0.9 of the minimum-image limit) over water
        # boxes up to the sizes 16^3 accepted.
        from repro.systems import build_water_box

        for waters, cap in ((8, 5.5), (40, 5.5), (64, 5.5), (16, 4.5), (32, 4.5)):
            box = build_water_box(n_molecules=waters, seed=0).box
            cutoff = min(cap, box.max_cutoff() * 0.9)
            assert GSEParams.smallest_mesh(box, cutoff) == (16, 16, 16)

    @pytest.mark.parametrize("side, cutoff", [(14.5, 5.5), (20.0, 5.5), (37.0, 9.0), (60.0, 4.5)])
    def test_is_accepted_and_minimal(self, side, cutoff):
        box = Box.cubic(side)
        mesh = GSEParams.smallest_mesh(box, cutoff)
        assert len(set(mesh)) == 1 and mesh[0] >= 16 and mesh[0] & (mesh[0] - 1) == 0
        GSEParams.choose(box, cutoff, mesh)
        if mesh[0] > 16:
            with pytest.raises(ValueError, match="too coarse"):
                GSEParams.choose(box, cutoff, tuple(m // 2 for m in mesh))

    def test_each_axis_on_its_own(self):
        box = Box(np.array([12.0, 40.0, 21.0]))
        mesh = GSEParams.smallest_mesh(box, 5.5)
        assert mesh == (16, 64, 32)
        GSEParams.choose(box, 5.5, mesh)
        for axis in (1, 2):  # halving either refined axis is refused
            coarser = list(mesh)
            coarser[axis] //= 2
            with pytest.raises(ValueError, match="too coarse"):
                GSEParams.choose(box, 5.5, tuple(coarser))

    def test_a_refusal_that_is_not_about_resolution_surfaces(self):
        with pytest.raises(ValueError):
            GSEParams.smallest_mesh(Box.cubic(20.0), 0.0)  # sigma 0: no mesh helps

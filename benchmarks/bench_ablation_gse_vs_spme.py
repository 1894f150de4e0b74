"""Ablation (Section 3.1): Gaussian Split Ewald vs Smooth PME.

Why Anton uses GSE: "Anton's PPIPs ... compute interactions between two
points as a table-driven function of the distance between them — a
radially symmetric functional form that is incompatible with
B-splines."  GSE's charge-spreading weight depends only on |r|, so the
HTIS hardware runs it; SPME's separable B-spline weights do not.

This bench verifies the radial-symmetry distinction numerically and
compares the two methods' accuracy and per-atom mesh work at matched
settings.
"""

import numpy as np
import pytest

from repro.ewald import (
    GaussianSplitEwald,
    GSEParams,
    SmoothPME,
    SPMEParams,
    choose_sigma,
    direct_ewald,
    real_space_force_kernel,
)
from repro.geometry import Box, brute_force_pairs


def total_forces(box, pos, q, cutoff, mesh_method):
    sigma = mesh_method.params.sigma
    pairs = brute_force_pairs(pos, box, cutoff)
    qq = q[pairs.i] * q[pairs.j]
    f = np.zeros((len(pos), 3))
    pref = qq * real_space_force_kernel(pairs.r2, sigma)
    np.add.at(f, pairs.i, pref[:, None] * pairs.dx)
    np.add.at(f, pairs.j, -pref[:, None] * pairs.dx)
    _e, f_k = mesh_method.kspace(pos, q)
    return f + f_k


def test_gse_vs_spme_accuracy_and_work(benchmark, record_table):
    rng = np.random.default_rng(0)
    n, side, cutoff = 40, 20.0, 9.0
    box = Box.cubic(side)
    pos = rng.uniform(0, side, (n, 3))
    q = rng.uniform(-1, 1, n)
    q -= q.mean()
    sigma = choose_sigma(cutoff, 1e-6)

    def run_all():
        gse = GaussianSplitEwald(box, GSEParams.choose(box, cutoff, (32, 32, 32), 1e-6))
        spme4 = SmoothPME(box, SPMEParams(sigma=sigma, mesh=(32, 32, 32), order=4))
        spme6 = SmoothPME(box, SPMEParams(sigma=sigma, mesh=(32, 32, 32), order=6))
        ref = direct_ewald(pos, q, box, sigma=2.0, real_images=1, kmax=16)
        frms = np.sqrt(np.mean(ref.forces**2))
        out = {}
        for name, method in (("GSE", gse), ("SPME-4", spme4), ("SPME-6", spme6)):
            f = total_forces(box, pos, q, cutoff, method)
            err = np.sqrt(np.mean((f - ref.forces) ** 2)) / frms
            out[name] = (err, method.stencil_size())
        return out

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "GSE vs SPME at 32^3 mesh, 9 A cutoff",
        f"{'method':<8} {'force error':>12} {'mesh pts/atom':>14}",
    ]
    for name, (err, stencil) in out.items():
        lines.append(f"{name:<8} {err:>12.1e} {stencil:>14d}")
    record_table("ablation_gse_vs_spme", lines)

    # Both are accurate electrostatics solvers at production settings.
    assert out["GSE"][0] < 1e-4
    assert out["SPME-6"][0] < 1e-4
    # GSE pays a much larger stencil for its radial symmetry — the cost
    # Anton absorbs in hardware to reuse the pairwise pipelines.
    assert out["GSE"][1] > 5 * out["SPME-4"][1]


def test_radial_symmetry_distinction(benchmark):
    """GSE weights are functions of distance alone; B-spline weights
    are not — the property that decides hardware mappability."""
    box = Box.cubic(16.0)
    gse, spme = benchmark.pedantic(
        lambda: (
            GaussianSplitEwald(box, GSEParams.choose(box, 7.0, (16, 16, 16))),
            SmoothPME(box, SPMEParams(sigma=2.0, mesh=(16, 16, 16), order=4)),
        ),
        rounds=1,
        iterations=1,
    )

    # Two atom positions at the same distance from a mesh point but in
    # different directions.
    center = np.array([8.0, 8.0, 8.0])
    d = 0.73
    p1 = center + [d, 0.0, 0.0]
    p2 = center + [d / np.sqrt(3)] * 3

    def gse_weight_at(p):
        # The plan's separable rows: the weight of a stencil point is the
        # product of its three axis weights, r² the sum of squared
        # axis displacements.
        plan = gse.make_plan(p[None, :])
        (wx,), (wy,), (wz,) = plan.axis_w
        (dx,), (dy,), (dz,) = plan.axis_d
        w = (wx[:, None, None] * wy[None, :, None]) * wz[None, None, :]
        r2 = (dx[:, None, None] ** 2 + dy[None, :, None] ** 2) + dz[None, None, :] ** 2
        # weight of the mesh point nearest `center`
        k = np.unravel_index(np.argmin(np.abs(r2 - d * d)), r2.shape)
        return w[k], np.sqrt(r2[k])

    w1, r1 = gse_weight_at(p1)
    w2, r2_ = gse_weight_at(p2)
    assert r1 == pytest.approx(r2_, abs=1e-9)
    assert w1 == pytest.approx(w2, rel=1e-9)  # radially symmetric

    # SPME: same |offset| from the nearest grid point, different weights.
    def spme_corner_weight(p):
        idx, w, _dw = spme._stencil(p[None, :])
        # product weight of the first stencil corner
        return w[0, 0, 0] * w[0, 0, 1] * w[0, 0, 2]

    q1 = spme_corner_weight(p1)
    q2 = spme_corner_weight(p2)
    assert abs(q1 - q2) > 1e-6  # separable, not radial

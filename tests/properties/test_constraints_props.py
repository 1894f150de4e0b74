"""Property-based tests of the SETTLE / SHAKE / RATTLE solver.

Each solver property holds for two clusters built from one draw: TIP3P
waters, whose rigid waters SETTLE solves, and the same waters with one H
of each molecule a deuterium, which makes no molecule a rigid water, so
the SHAKE / RATTLE sweeps take every constraint.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstraintSolver
from repro.forcefield import TIP3P, Topology, add_water_to_topology, water_site_positions
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, get_suite


def water_cluster(n_waters, seed):
    rng = np.random.default_rng(seed)
    box = Box.cubic(30.0)
    top = Topology(3 * n_waters)
    pos = np.empty((3 * n_waters, 3))
    local = water_site_positions(TIP3P)
    for i in range(n_waters):
        add_water_to_topology(top, 3 * i, TIP3P)
        pos[3 * i : 3 * i + 3] = local + rng.uniform(3, 27, 3)
    masses = np.tile([15.9994, 1.008, 1.008], n_waters)
    return box, top, pos, masses


#: Each solver property's two cases: rigid waters, or every constraint swept.
SOLVES = ("settle", "swept")


def solver_for(solve, n_waters, seed):
    """``(box, pos, masses, solver)`` of a cluster; ``"swept"`` gives one
    H of each molecule the mass of deuterium, so SETTLE takes none."""
    box, top, pos, masses = water_cluster(n_waters, seed)
    if solve == "swept":
        masses[2::3] = 2.014
    solver = ConstraintSolver(top, masses, box)
    if solve == "swept":
        assert len(solver.shake_idx) > 0 and not len(solver.waters)
    else:
        assert len(solver.waters) == n_waters and not len(solver.shake_idx)
    return box, pos, masses, solver


@given(
    n_waters=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    noise=st.floats(0.001, 0.06),
)
@settings(max_examples=40, deadline=None)
def test_shake_converges_from_random_perturbation(n_waters, seed, noise):
    for solve in SOLVES:
        box, pos, masses, solver = solver_for(solve, n_waters, seed)
        rng = np.random.default_rng(seed + 1)
        bad = pos + rng.normal(0, noise, pos.shape)
        solver.shake(bad, pos)
        assert solver.max_residual(bad) < 1e-8, solve


@given(n_waters=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rattle_leaves_constraint_orthogonal_velocities(n_waters, seed):
    for solve in SOLVES:
        box, pos, masses, solver = solver_for(solve, n_waters, seed)
        rng = np.random.default_rng(seed + 2)
        vel = rng.normal(0, 0.02, pos.shape)
        solver.rattle(vel, pos)
        i, j = solver.idx[:, 0], solver.idx[:, 1]
        dx = box.minimum_image(pos[i] - pos[j])
        rv = np.sum(dx * (vel[i] - vel[j]), axis=1)
        assert np.max(np.abs(rv)) < 1e-10, solve


@given(n_waters=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_shake_preserves_momentum(n_waters, seed):
    for solve in SOLVES:
        box, pos, masses, solver = solver_for(solve, n_waters, seed)
        rng = np.random.default_rng(seed + 3)
        bad = pos + rng.normal(0, 0.03, pos.shape)
        com0 = np.sum(masses[:, None] * bad, axis=0)
        solver.shake(bad, pos)
        com1 = np.sum(masses[:, None] * bad, axis=0)
        np.testing.assert_allclose(com0, com1, atol=1e-8, err_msg=solve)


@given(n_waters=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_shake_deterministic(n_waters, seed):
    for solve in SOLVES:
        box, pos, masses, solver = solver_for(solve, n_waters, seed)
        rng = np.random.default_rng(seed + 4)
        bad = pos + rng.normal(0, 0.02, pos.shape)
        a = solver.shake(bad.copy(), pos)
        b = solver.shake(bad.copy(), pos)
        np.testing.assert_array_equal(a, b, err_msg=solve)


@given(n_waters=st.integers(1, 5), seed=st.integers(0, 2**31 - 1), nrep=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_swept_blocks_are_each_the_solo_solve(n_waters, seed, nrep):
    """SHAKE / RATTLE of ``nrep`` stacked blocks (an ensemble's replicas)
    equal each block's solo solve bit for bit, on every suite, and
    converge.  Every second H is one ulp heavier, so no molecule is a
    rigid water and the sweeps take every constraint; block ``r`` is
    perturbed by ``10**-(2 + r)`` A, so the blocks stop after different
    sweep counts, and one that absorbed another's sweeps would change
    bits."""
    box, top, pos, masses = water_cluster(n_waters, seed)
    masses[2::3] = np.nextafter(masses[2::3], np.inf)
    solver = ConstraintSolver(top, masses, box)
    assert not len(solver.waters) and len(solver.shake_idx) == solver.n_constraints
    rng = np.random.default_rng(seed + 5)
    n = len(pos)
    ref = np.tile(pos, (nrep, 1))
    noise = np.repeat(10.0 ** -np.arange(2.0, 2.0 + nrep), n)[:, None]
    bad = ref + rng.normal(0.0, 1.0, ref.shape) * noise
    vel = rng.normal(0.0, 0.02, ref.shape)
    for suite in (NUMPY_SUITE, get_suite()):
        got_p = solver.shake_blocks(suite, bad.copy(), ref, 1e-10, nrep, n)
        got_v = solver.rattle_blocks(suite, vel.copy(), got_p, 1e-12, nrep, n)
        for r in range(nrep):
            sl = slice(r * n, (r + 1) * n)
            p = solver.shake(bad[sl].copy(), ref[sl])
            v = solver.rattle(vel[sl].copy(), p)
            np.testing.assert_array_equal(got_p[sl].view(np.int64), p.view(np.int64))
            np.testing.assert_array_equal(got_v[sl].view(np.int64), v.view(np.int64))
            assert solver.max_residual(p) < 1e-8

"""Property tests: the compiled SHAKE / RATTLE sweeps == the NumPy suite's,
bit for bit, at the edges of the minimum image.

Both sweeps take unwrapped differences ``d = x[i] - x[j]`` through
``Box.minimum_image`` (``d - L·rint(d/L)``).  Their C form,
``rk_min_image``, returns ``d + 0.0`` without dividing when ``|d| <=
L/2`` (the half-box lemma in ``_kernels.c`` and DESIGN.md) and divides
otherwise, so these cases sit on both sides of that test and on it:
differences of exactly ``±L/2`` and one ulp either side, a zero
difference built from ``-0.0`` and ``+0.0`` coordinates, molecules
unwrapped across the box (``|d| > L/2``: the division path), and a NaN
coordinate (the residual is NaN, so every sweep runs).  Every output is
compared with ``NUMPY_SUITE``'s as int64 bit patterns, so a zero of the
wrong sign or a different NaN fails.

Skipped wholesale when the host has no C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSolver
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, available
from repro.kernels.build import load
from repro.kernels.suite import CompiledKernels
from repro.systems import build_water_box

pytestmark = [
    pytest.mark.skipif(not available(), reason="no C compiler: compiled kernel tier unavailable"),
    # Degenerate on purpose (zero-length and NaN constraints): the NumPy
    # sweeps warn where the C sweeps divide silently, to the same bits.
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]

LENGTHS = np.array([8.0, 6.0, 10.0])
WATERS = 12


@pytest.fixture(scope="module")
def compiled():
    return CompiledKernels(load(), threads=1)


@pytest.fixture(scope="module")
def solver():
    """Waters the sweeps must take: each second H is one ulp heavier than
    the first, so no molecule is a rigid water for SETTLE and SHAKE /
    RATTLE sweep every constraint (SETTLE's own edges are
    ``test_kernels_settle_props.py``'s)."""
    s = build_water_box(n_molecules=WATERS, seed=0)
    masses = s.masses.copy()
    masses[2::3] = np.nextafter(masses[2::3], np.inf)
    solver = ConstraintSolver(s.topology, masses, Box(LENGTHS))
    assert not len(solver.waters) and len(solver.shake_idx) == 3 * WATERS
    return solver


def edge_values(axis: int) -> np.ndarray:
    """Differences on and around ``±L/2``, both zeros, and unwrapped ones."""
    L = LENGTHS[axis]
    h = 0.5 * L
    on = [h, np.nextafter(h, 0.0), np.nextafter(h, np.inf)]
    far = [h + L, 2.5 * L + 0.3, 0.7, 1e-300]
    return np.array([*on, *(-v for v in on), 0.0, -0.0, *far, *(-v for v in far)])


def edge_positions(rng) -> np.ndarray:
    """Each water's O at a signed zero, its H atoms at edge values.

    The O–H differences are then exactly ``±0 - v``: ``-v`` for every
    nonzero ``v``, and both zero signs for ``v == ±0``."""
    pos = np.empty((3 * WATERS, 3))
    for a in range(3):
        pos[0::3, a] = rng.choice([0.0, -0.0], WATERS)
        pos[1::3, a] = rng.choice(edge_values(a), WATERS)
        pos[2::3, a] = rng.choice(edge_values(a), WATERS)
    return pos


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def check(suite, solver, ref, pos, vel, nrep=1):
    """SHAKE of ``pos`` against ``ref`` and RATTLE of ``vel`` at ``pos`` (both
    from the given positions, so each sees their edge differences), on
    ``suite`` and on the NumPy suite: same bits."""
    n = solver.inv_mass.shape[0]
    results = []
    for k in (NUMPY_SUITE, suite):
        p, v = pos.copy(), vel.copy()
        k.shake_batch(solver, p, ref, 1e-10, nrep, n)
        k.rattle_batch(solver, v, pos, 1e-12, nrep, n)
        results.append((p, v))
    (want_p, want_v), (got_p, got_v) = results
    assert_same_bits(got_p, want_p)
    assert_same_bits(got_v, want_v)
    return want_p, want_v


@given(seed=st.integers(0, 2**31 - 1), nrep=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_half_box_edges_and_signed_zeros(compiled, solver, seed, nrep):
    """Reference and current positions both at edge differences."""
    for a in range(3):  # the values sit on, inside and outside the half box
        v, h = edge_values(a), 0.5 * LENGTHS[a]
        assert np.any(np.abs(v) == h) and np.any(np.abs(v) < h) and np.any(np.abs(v) > h)
        assert np.any(np.signbit(v[v == 0.0]))
    rng = np.random.default_rng(seed)
    ref = np.concatenate([edge_positions(rng) for _ in range(nrep)])
    pos = np.concatenate([edge_positions(rng) for _ in range(nrep)])
    vel = rng.normal(0.0, 0.1, pos.shape)
    check(compiled, solver, ref, pos, vel, nrep)


def test_zero_differences_of_both_signs(compiled, solver):
    """``-0.0 - 0.0`` is ``-0.0``: the minimum image must make it ``+0.0``
    on both tiers, as ``rint`` does.  Waters lie in the y–z plane, O at
    ``-0.0`` and H at ``+0.0`` in x, near their constraint lengths, so
    every x difference is a signed zero that SHAKE's reference
    directions and RATTLE's constraint vectors keep and scale into
    corrections; ``-0.0`` x coordinates and velocities then show its
    sign (``-0.0 - (+0.0)`` is ``-0.0``, ``-0.0 - (-0.0)`` is ``+0.0``)."""
    rng = np.random.default_rng(5)
    a = 0.5 * solver.dist[2]  # half the H–H constraint
    b = np.sqrt(solver.dist[0] ** 2 - a * a)
    ref = np.tile([[-0.0, 0.0, 0.0], [0.0, a, b], [0.0, -a, b]], (WATERS, 1))
    pos = ref.copy()
    pos[:, 1:] += rng.normal(0.0, 1e-4, (3 * WATERS, 2))
    vel = rng.normal(0.0, 0.1, pos.shape)
    vel[:, 0] = -0.0
    assert np.signbit(pos[0, 0] - pos[1, 0])  # a -0.0 difference reaches the image
    p, v = check(compiled, solver, ref, pos, vel)
    assert np.all(p[:, 0] == 0.0) and np.all(v[:, 0] == 0.0)
    assert np.any(np.signbit(v[:, 0]))  # the signs survive to the output


def test_molecules_unwrapped_across_the_box(compiled, solver):
    """H atoms shifted by whole box lengths away from their O: every O–H
    difference exceeds ``L/2`` on every axis and takes the division."""
    rng = np.random.default_rng(7)
    s = build_water_box(n_molecules=WATERS, seed=1)
    ref = s.positions - s.positions[0::3].repeat(3, axis=0)  # O at the origin
    ref += rng.uniform(0.0, 1.0, (WATERS, 3)).repeat(3, axis=0) * LENGTHS
    shift = rng.integers(-3, 4, ref.shape)
    shift[shift == 0] = 1
    shift[0::3] = 0
    pos = ref + shift * LENGTHS + rng.normal(0.0, 0.05, ref.shape)
    d = pos[0::3] - pos[1::3]
    assert np.all(np.abs(d) > 0.5 * LENGTHS)
    p, _ = check(compiled, solver, ref, pos, rng.normal(0.0, 0.1, pos.shape))
    assert np.all(np.isfinite(p))


def test_a_nan_coordinate_runs_every_sweep(compiled, solver):
    """A NaN keeps the residual NaN (``err < tol`` never holds), so both
    tiers run all their sweeps, and NaN spreads only through the
    molecule that holds it."""
    rng = np.random.default_rng(3)
    ref = edge_positions(rng)
    pos = ref + rng.normal(0.0, 0.01, ref.shape)
    pos[4, 1] = np.nan
    vel = rng.normal(0.0, 0.1, pos.shape)
    p, v = check(compiled, solver, ref, pos, vel)
    assert np.isnan(p[3:6]).all() and np.isnan(v[3:6]).all()
    assert not np.isnan(np.delete(p, np.s_[3:6], axis=0)).any()

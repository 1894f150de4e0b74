"""Property tests: the compiled axis-row mesh kernels == the NumPy suite's.

A :class:`~repro.ewald.MeshStencilPlan` holds only per-axis rows, and
the suite's ``mesh_spread_axes`` / ``mesh_spread_float_axes`` /
``mesh_gather_axes`` evaluate each atom–mesh-point weight from them.
On the compiled tier that is one C pass each, with no stencil block;
their reference is ``NUMPY_SUITE``'s forms of the same three primitives,
which build ``(m, k)`` blocks from the rows.  These properties demand
exact equality — of the int64 mesh, of the chunk-sensitive float mesh,
of the gather's three stencil sums down to the sign of a zero, and of
the forces — on non-cubic stencils, at the box faces, on the
``r² == c2`` sphere edge, at every chunk and ``[lo, hi)`` boundary, for
plans over atom subsets, through replica row views, and at 1, 2 and 4
threads.

The quantized spread and the gather work in halo'd z columns: each
atom's z row is one run of ``kzp`` lanes (``kz`` padded to whole blocks
of 8) from its first wrapped index, the spread folds the halo back into
the mesh and the gather reads a halo copy of ``phi``; the float spread
still cuts each row into its runs of contiguous mesh points.  The
layouts that can go wrong have a property each below: every start cell
``z0`` for stencils narrower than, as wide as and wider than the mesh,
``kz`` a multiple of the pad block and not (synthetic axis rows, since a
GSE stencil is always odd), a stencil wider than the mesh on GSE plans
(bins one atom hits twice), no wrap at all, and an atom on every cell
boundary.  The gather adds in the order DESIGN.md's gather-order lemma
defines, on both tiers: the properties pin that a point outside the
sphere adds nothing (``-0.0``) whatever ``phi`` holds there, that no
BLAS call is left in it, and that against the BLAS contraction it
replaced the change is one of rounding only.

Skipped wholesale when the host has no C compiler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams, minimize_energy
from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import Box
from repro.kernels import NUMPY_SUITE, available
from repro.kernels.build import load
from repro.kernels.suite import CompiledKernels
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.mesh_stencil import stencil

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

MESH_CODEC = ScaledFixed(FixedFormat(40), limit=8.0)

#: h = (1.0, 0.5, 0.75) exactly, so an atom on a mesh point has exactly
#: representable displacements, and the cutoff 3.0 puts mesh points
#: such as (3, 0, 0) and (2, 2, 1)·h-steps on r² == c2 == 9.0 itself.
LENGTHS = np.array([16.0, 12.0, 12.0])
MESH = (16, 24, 16)
CHUNK = 8


@pytest.fixture(scope="module")
def suites():
    return [CompiledKernels(load(), threads=t) for t in (1, 2, 4)]


def make_gse() -> GaussianSplitEwald:
    params = GSEParams(sigma=2.0, sigma_s=0.9, mesh=MESH, spreading_cutoff=3.0)
    gse = GaussianSplitEwald(Box(LENGTHS), params)
    assert tuple(2 * gse._offsets + 1) == (7, 13, 9)  # kx != ky != kz
    return gse


def edge_atoms() -> np.ndarray:
    """On a mesh point (sphere edge hit exactly), at 0, at L, at L - ulp."""
    return np.array([
        [5.0, 3.0, 4.5],
        [0.0, 0.0, 0.0],
        LENGTHS,
        np.nextafter(LENGTHS, 0.0),
        [np.nextafter(16.0, 0.0), 0.0, 12.0],
    ])


def signed_phi(rng, mesh=MESH) -> np.ndarray:
    """Potential with negative values and both zeros under masked points."""
    phi = rng.normal(0, 1, mesh)
    kind = rng.integers(0, 4, mesh)
    phi[kind == 0] = 0.0
    phi[kind == 1] = -0.0
    return phi


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equality that tells -0.0 from +0.0."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def gather_sums(plan, phi, lo=0, hi=None, kernels=NUMPY_SUITE) -> np.ndarray:
    """The gather's three stencil sums of atoms ``[lo, hi)``, before ``q / sigma_s²``."""
    hi = plan.n if hi is None else hi
    out = np.empty((hi - lo, 3))
    kernels.mesh_gather_axes(out, *plan._axes(), phi.ravel(), lo, hi)
    return out


def check_plan(gse, pos, q, phi, suites, chunk=CHUNK):
    """Spreads, gather sums and forces of every compiled suite == the NumPy suite's."""
    oracle = gse.make_plan(pos)
    n = oracle.n
    want_mesh = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    oracle.spread_codes(q, want_mesh, MESH_CODEC)
    want_f = oracle.interpolate_forces(q, phi)
    base_q = phi.ravel() * (phi.ravel() > 0.5)  # zeros of both signs, and values
    want_q = base_q.copy()
    oracle.spread_float(q, want_q, chunk=chunk)
    want_sums = gather_sums(oracle, phi)
    rows = np.random.default_rng(n).permutation(n)[: n // 2]
    for k in suites:
        plan = gse.make_plan(pos)
        got_mesh = np.zeros_like(want_mesh)
        plan.spread_codes(q, got_mesh, MESH_CODEC, kernels=k)
        np.testing.assert_array_equal(got_mesh, want_mesh)
        got_q = base_q.copy()
        plan.spread_float(q, got_q, chunk=chunk, kernels=k)  # chunk-sensitive
        assert_same_bits(got_q, want_q)
        for lo, hi in ((0, n), (0, min(n, chunk)), (n // 3, n - n // 4)):
            assert_same_bits(gather_sums(plan, phi, lo, hi, kernels=k), want_sums[lo:hi])
        assert_same_bits(plan.interpolate_forces(q, phi, kernels=k), want_f)
        # A plan over an atom subset gathers each atom's own forces.
        got = gse.make_plan(pos[rows]).interpolate_forces(q[rows], phi, kernels=k)
        assert_same_bits(got, want_f[rows])
    return oracle


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 60))
@settings(max_examples=25, deadline=None)
def test_fused_matches_cube_pipeline(suites, seed, n):
    """Random atoms (in and out of the box) on the non-cubic stencil."""
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos = rng.uniform(-0.3, 1.3, (n, 3)) * LENGTHS  # wrap() handles out-of-box
    check_plan(gse, pos, rng.uniform(-1, 1, n), signed_phi(rng), suites)


def test_box_faces_and_exact_sphere_edge(suites):
    """Atoms at 0 / L / L-ulp, and mesh points with r² == c2 exactly (kept)."""
    rng = np.random.default_rng(3)
    gse = make_gse()
    pos = edge_atoms()
    oracle = check_plan(gse, pos, rng.uniform(-1, 1, len(pos)), signed_phi(rng), suites)
    d2 = [d[0] * d[0] for d in oracle.axis_d]
    r2 = (d2[0][:, None, None] + d2[1][None, :, None]) + d2[2][None, None, :]
    on_edge = r2 == gse.params.spreading_cutoff**2
    w0 = stencil(oracle)[0][0].reshape(oracle.shape)
    assert on_edge.sum() >= 6 and np.all(w0[on_edge] > 0.0)
    assert np.all(w0[r2 > 9.0] == 0.0)


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK + 3])
def test_chunk_boundaries_and_zero_charges(suites, n):
    rng = np.random.default_rng(n)
    gse = make_gse()
    pos = rng.uniform(0, 1, (n, 3)) * LENGTHS
    q = rng.uniform(-1, 1, n)
    q[::3] = 0.0
    check_plan(gse, pos, q, signed_phi(rng), suites)
    check_plan(gse, pos, np.zeros(n), signed_phi(rng), suites)


def z_gse(lz: float, mz: int) -> GaussianSplitEwald:
    """``make_gse`` with its z axis replaced: ``mz`` points over ``lz``."""
    params = GSEParams(sigma=2.0, sigma_s=0.9, mesh=(16, 24, mz), spreading_cutoff=3.0)
    return GaussianSplitEwald(Box(np.array([16.0, 12.0, lz])), params)


def z_runs(plan) -> np.ndarray:
    """Per atom, how many runs of consecutive mesh points its z row has."""
    return 1 + np.count_nonzero(np.diff(plan.axis_i[2], axis=1) != 1, axis=1)


@pytest.mark.parametrize("lz, mz, kz, runs", [
    (3.0, 4, 9, (3,)),        # stencil wider than the mesh: bins hit 2-3 times
    (2.0, 4, 13, (4,)),       # wider still: 3-4 times
    (6.75, 9, 9, (1, 2)),     # kz == mz: every point of a column exactly once
    (3.75, 5, 9, (2, 3)),     # one full period and a partial one
])
def test_stencil_as_wide_as_the_mesh_and_wider(suites, lz, mz, kz, runs):
    """The z row wraps more than once: any number of runs is one loop.

    In the float spread an atom then adds to the same bin several
    times; the adds must land in z order (the bincount's)."""
    rng = np.random.default_rng(mz)
    gse = z_gse(lz, mz)
    assert 2 * gse._offsets[2] + 1 == kz
    n = 40
    pos = rng.uniform(0, 1, (n, 3)) * gse.box.lengths
    pos[:mz, 2] = np.arange(mz) * (lz / mz)  # every z0, on the mesh points
    q = rng.uniform(-1, 1, n)
    q[::5] = 0.0
    oracle = check_plan(gse, pos, q, signed_phi(rng, gse.mesh), suites)
    assert set(z_runs(oracle)) == set(runs)
    if kz > mz:
        flat = stencil(oracle)[1]
        assert len(np.unique(flat[0])) < flat.shape[1]  # repeated bins


def test_no_wrap_at_all(suites):
    """Atoms whose whole cube is interior: one run per column, everywhere."""
    rng = np.random.default_rng(11)
    gse = make_gse()
    c = gse._offsets
    lo, hi = c * gse.h, (np.array(MESH) - c - 1) * gse.h
    pos = rng.uniform(lo, hi, (50, 3))
    oracle = check_plan(gse, pos, rng.uniform(-1, 1, 50), signed_phi(rng), suites)
    assert set(z_runs(oracle)) == {1}
    for a in range(3):
        assert np.all(np.diff(oracle.axis_i[a], axis=1) == 1)


def test_an_atom_on_every_cell_boundary_of_a_16_cubed_mesh(suites):
    """h == 1: atoms at every integer z (and one ulp under it), so the
    z row's first run has every length 1..kz and the split falls at
    every row position."""
    rng = np.random.default_rng(16)
    params = GSEParams(sigma=2.0, sigma_s=0.9, mesh=(16, 16, 16), spreading_cutoff=3.0)
    gse = GaussianSplitEwald(Box(np.full(3, 16.0)), params)
    k = np.arange(16.0)
    on = np.stack([k, (5 * k) % 16, k], axis=1)
    under = np.stack([(3 * k) % 16, k, np.nextafter(k + 1.0, 0.0)], axis=1)
    pos = np.concatenate([on, under])
    q = rng.uniform(-1, 1, len(pos))
    q[::4] *= -1.0
    oracle = check_plan(gse, pos, q, signed_phi(rng, gse.mesh), suites, chunk=5)
    kz = oracle.shape[2]
    first_run = np.where(
        z_runs(oracle) == 1, kz, 16 - oracle.axis_i[2][:, 0].astype(int)
    )
    assert set(first_run) == set(range(1, kz + 1))


def synthetic_rows(rng, starts, ks, mesh):
    """Per-axis ``(w, d, i)`` rows of atoms whose stencils start at ``starts``.

    Index rows are consecutive mod their mesh extent from each start (the
    plan's promise), weights are positive, and displacements are centred
    at unit spacing plus an atom's fractional offset, so the
    ``(dx²+dy²)+dz² <= c2`` sphere cuts the cube."""
    n = len(starts)
    rows = [], [], []
    for a, (k, m) in enumerate(zip(ks, mesh)):
        i = (starts[:, a, None] + np.arange(k)) % m
        d = (np.arange(k) - (k - 1) / 2) + rng.uniform(-0.5, 0.5, (n, 1))
        for out, row in zip(rows, (rng.uniform(0.1, 1.0, (n, k)), d, i.astype(np.int32))):
            out.append(np.ascontiguousarray(row))
    return rows


@pytest.mark.parametrize("mz", [8, 16, 32])
@pytest.mark.parametrize("kz", [1, 8, 13, 16, 17])
def test_halo_columns_from_every_start_cell(suites, kz, mz):
    """Every start cell ``z0 in [0, mz)``, two atoms each, for ``kz`` a
    multiple of the 8-lane pad block and not, narrower than, as wide as
    and wider than the mesh: the int64 mesh (spread onto a mesh that
    already holds codes, wrapping) and the gather sums equal the NumPy
    suite's as bit patterns."""
    rng = np.random.default_rng(100 * kz + mz)
    mesh = (5, 4, mz)
    z0 = np.repeat(np.arange(mz), 2)
    n = len(z0)
    starts = np.stack([rng.integers(0, 5, n), rng.integers(0, 4, n), z0], axis=1)
    axis_w, axis_d, axis_i = synthetic_rows(rng, starts, (3, 2, kz), mesh)
    c2 = 1.0 + ((kz - 1) / 2) ** 2
    r2 = (axis_d[0][:, :, None, None] ** 2 + axis_d[1][:, None, :, None] ** 2) + (
        axis_d[2][:, None, None, :] ** 2
    )
    assert np.any(r2 <= c2) and (kz == 1 or np.any(r2 > c2))
    qc = rng.uniform(-1.0, 1.0, n) * 2.0**40
    qc[::7] = 0.0
    acc0 = rng.integers(-(2**63), 2**63 - 1, math.prod(mesh), dtype=np.int64, endpoint=True)
    phi = signed_phi(rng, mesh).ravel()
    want_acc = acc0.copy()
    NUMPY_SUITE.mesh_spread_axes(want_acc, axis_w, axis_d, axis_i, mesh, c2, qc)
    want = np.empty((n, 3))
    NUMPY_SUITE.mesh_gather_axes(want, axis_w, axis_d, axis_i, mesh, c2, phi, 0, n)
    for k in suites:
        assert k._mesh_axes(axis_w, axis_d, axis_i, mesh) is not None  # the C path runs
        acc = acc0.copy()
        k.mesh_spread_axes(acc, axis_w, axis_d, axis_i, mesh, c2, qc)
        assert_same_bits(acc, want_acc)
        for lo, hi in ((0, n), (1, n - 1)):
            got = np.empty((hi - lo, 3))
            k.mesh_gather_axes(got, axis_w, axis_d, axis_i, mesh, c2, phi, lo, hi)
            assert_same_bits(got, want[lo:hi])


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_points_outside_the_sphere_add_nothing(suites, sign):
    """``phi`` of one sign, with inf, -inf and NaN at mesh points that lie in
    some atom's stencil cube but outside every atom's sphere: each such
    point adds ``-0.0`` on both tiers, so the forces are finite and the
    bits of the same ``phi`` with those points set to any finite value
    (where a masked ``phi·0.0`` would be a zero no sum sees)."""
    rng = np.random.default_rng(2)
    gse = make_gse()
    pos = rng.uniform(0, 1, (30, 3)) * LENGTHS
    q = rng.uniform(-1, 1, 30)
    w, flat = stencil(gse.make_plan(pos))
    outside = np.setdiff1d(flat[w == 0.0], flat[w > 0.0])
    assert len(outside) >= 3
    finite = sign * (0.5 + rng.uniform(0, 1, MESH))
    finite.ravel()[outside] = sign * 7.0
    want = check_plan(gse, pos, q, finite, suites).interpolate_forces(q, finite)
    poisoned = finite.copy()
    poisoned.ravel()[outside] = np.resize([np.inf, -np.inf, np.nan], len(outside))
    assert np.all(np.isfinite(want))
    for k in (NUMPY_SUITE, *suites):
        got = gse.make_plan(pos).interpolate_forces(q, poisoned, kernels=k)
        assert_same_bits(got, want)


def blas_forces(plan, q, phi) -> np.ndarray:
    """The contraction the gather replaced: z against ``[1, dz]`` by a batched
    matmul, x and y by einsums — BLAS's reduction order, masked points
    ``phi·0.0``."""
    n, (kx, ky, kz) = plan.n, plan.shape
    w, flat = stencil(plan)
    g = np.take(phi.ravel(), flat) * w
    B = np.ones((n, kz, 2))
    B[:, :, 1] = plan.axis_d[2]
    s = np.matmul(g.reshape(n, kx * ky, kz), B).reshape(n, kx, ky, 2)
    return (q / plan.gse.params.sigma_s**2)[:, None] * np.stack([
        np.einsum("nxy,nx->n", s[..., 0], plan.axis_d[0]),
        np.einsum("nxy,ny->n", s[..., 0], plan.axis_d[1]),
        np.einsum("nxy->n", s[..., 1]),
    ], axis=1)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_the_gather_order_is_a_rounding_change_from_the_blas_contraction(suites, seed):
    """Against the old matmul/einsum contraction the new order moves each
    force component by at most a few ulp of its sum of absolute terms
    ``Σ |q·phi·w·d| / sigma_s²`` (relative to the force itself it can be
    far more: the stencil's terms cancel)."""
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos = rng.uniform(0, 1, (200, 3)) * LENGTHS
    q = rng.uniform(-1, 1, 200)
    phi = signed_phi(rng)
    plan = gse.make_plan(pos)
    got = plan.interpolate_forces(q, phi)
    assert_same_bits(plan.interpolate_forces(q, phi, kernels=suites[0]), got)
    w, flat = stencil(plan)
    g = np.abs(np.take(phi.ravel(), flat) * w)
    g = g.reshape(plan.n, *plan.shape)
    d = [np.abs(a) for a in plan.axis_d]
    scale = np.abs(q / gse.params.sigma_s**2)[:, None] * np.stack([
        np.einsum("nxyz,nx->n", g, d[0]),
        np.einsum("nxyz,ny->n", g, d[1]),
        np.einsum("nxyz,nz->n", g, d[2]),
    ], axis=1)
    assert np.all(np.abs(got - blas_forces(plan, q, phi)) <= 4 * np.finfo(float).eps * scale)


def test_interpolate_forces_calls_no_blas(suites, monkeypatch):
    """No matmul, einsum, dot or tensordot anywhere in the gather, on either
    tier — the NumPy suite's stencil block included."""
    rng = np.random.default_rng(5)
    gse = make_gse()
    pos = rng.uniform(0, 1, (40, 3)) * LENGTHS
    q, phi = rng.uniform(-1, 1, 40), signed_phi(rng)
    plan = gse.make_plan(pos)

    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS-ordered reduction in interpolate_forces")

    for name in ("matmul", "einsum", "dot", "tensordot"):
        monkeypatch.setattr(np, name, refuse)
    for k in (NUMPY_SUITE, suites[0]):
        plan.interpolate_forces(q, phi, kernels=k)


@pytest.mark.parametrize("replicas", [2, 3])
def test_replica_row_views_equal_solo_plans(suites, replicas):
    """``rows_view``s of a stacked plan run the kernels as solo plans."""
    rng = np.random.default_rng(replicas)
    gse = make_gse()
    n = 21
    pos = rng.uniform(0, 1, (replicas * n, 3)) * LENGTHS
    q = rng.uniform(-1, 1, n)
    phi = signed_phi(rng)
    for k in suites:
        plan = gse.make_plan(pos)
        for r in range(replicas):
            view = plan.rows_view(r * n, (r + 1) * n)
            solo = gse.make_plan(pos[r * n : (r + 1) * n])
            want = np.zeros(gse.mesh_point_count(), dtype=np.int64)
            solo.spread_codes(q, want, MESH_CODEC)
            got = np.zeros_like(want)
            view.spread_codes(q, got, MESH_CODEC, kernels=k)
            np.testing.assert_array_equal(got, want)
            want_q, got_q = np.zeros(want.shape), np.zeros(want.shape)
            solo.spread_float(q, want_q, chunk=CHUNK)
            view.spread_float(q, got_q, chunk=CHUNK, kernels=k)
            assert_same_bits(got_q, want_q)
            assert_same_bits(
                view.interpolate_forces(q, phi, kernels=k),
                solo.interpolate_forces(q, phi),
            )
            for a, b in zip(stencil(view), stencil(solo), strict=True):
                np.testing.assert_array_equal(a, b)


def test_mesh_path_scratch_is_reused_across_evaluations():
    """Steady state allocates nothing: the same arrays serve every evaluation."""
    params = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=1)
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, params, max_steps=10)
    system.initialize_velocities(300.0, seed=12)
    machine = AntonMachine(
        system, params, n_nodes=8, dt=1.0, backend="vectorized", kernel_tier="compiled",
    )

    def scratch():
        plan = machine.calc._mesh_plan
        halo = machine.kernels._thread_scratch.array  # the halo'd columns
        return (plan, plan._acc, halo, *plan.axis_w, *plan.axis_d, *plan.axis_i)

    try:
        machine.step(1)
        first = scratch()
        machine.step(2)
        assert all(a is b for a, b in zip(scratch(), first, strict=True))
    finally:
        machine.close()

"""Property tests of the shared mesh stencil plan.

The machine backends build :class:`~repro.ewald.MeshStencilPlan` objects
per mesh evaluation and run charge spreading and force interpolation from
them — one plan over all atoms, or (the serial backend) one per
simulated node over the atoms it owns.  These properties pin down the
bitwise contract that makes that safe: under quantized
(``mesh_codec``-style) arithmetic a plan's kernels give the same bits
for any atom permutation and any partition of the atoms over plans.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import Box
from tests.mesh_stencil import potential

#: Same codec family the machine uses for its fixed-point mesh.
MESH_CODEC = ScaledFixed(FixedFormat(40), limit=8.0)

SIDE = 18.0


def scene():
    return st.tuples(
        st.integers(2, 24),  # atoms
        st.integers(0, 2**31 - 1),  # seed
    )


def make_gse() -> GaussianSplitEwald:
    box = Box.cubic(SIDE)
    return GaussianSplitEwald(box, GSEParams.choose(box, 5.0, (32, 32, 32)))


def random_atoms(rng, n):
    pos = rng.uniform(0, SIDE, (n, 3))
    q = rng.uniform(-1, 1, n)
    return pos, q


def quantized_phi(gse, pos, q):
    """Potential mesh of the quantized spread of ``q`` at ``pos``."""
    acc = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    gse.make_plan(pos).spread_codes(q, acc, MESH_CODEC)
    Q = MESH_CODEC.reconstruct(MESH_CODEC.wrap(acc)).reshape(tuple(gse.mesh))
    return gse.solve(Q)[0]


@given(scene())
@settings(max_examples=25, deadline=None)
def test_plan_spread_matches_independent_path_under_permutation(params):
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)

    ref = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    gse.make_plan(pos).spread_codes(q, ref, MESH_CODEC)

    perm = rng.permutation(n)
    acc = np.zeros_like(ref)
    gse.make_plan(pos[perm]).spread_codes(q[perm], acc, MESH_CODEC)
    np.testing.assert_array_equal(acc, ref)


@given(scene())
@settings(max_examples=25, deadline=None)
def test_plan_forces_match_independent_path_under_permutation(params):
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)
    phi = quantized_phi(gse, pos, q)

    ref = gse.make_plan(pos).interpolate_forces(q, phi)

    perm = rng.permutation(n)
    f = gse.make_plan(pos[perm]).interpolate_forces(q[perm], phi)
    np.testing.assert_array_equal(f, ref[perm])


@given(scene())
@settings(max_examples=25, deadline=None)
def test_rows_partition_is_invisible(params):
    """Spreading/interpolating through one plan per arbitrary atom subset
    (the serial backend's per-node split) is bitwise the whole-array
    result."""
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)
    plan = gse.make_plan(pos)

    whole = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    plan.spread_codes(q, whole, MESH_CODEC)
    phi, _ = gse.solve(MESH_CODEC.reconstruct(MESH_CODEC.wrap(whole)).reshape(tuple(gse.mesh)))
    f_whole = plan.interpolate_forces(q, phi)

    owners = rng.integers(0, 3, n)
    split = np.zeros_like(whole)
    f_split = np.empty_like(f_whole)
    for node in range(3):
        rows = np.nonzero(owners == node)[0]
        if len(rows):
            sub = gse.make_plan(pos[rows])
            sub.spread_codes(q[rows], split, MESH_CODEC)
            f_split[rows] = sub.interpolate_forces(q[rows], phi)
    np.testing.assert_array_equal(split, whole)
    np.testing.assert_array_equal(f_split, f_whole)


@given(scene())
@settings(max_examples=15, deadline=None)
def test_plan_potential_matches_independent_path(params):
    """The potential a plan's stencil interpolates is the per-atom sum of
    each atom's own plan: per-atom weights, whatever the atom set."""
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)
    phi = quantized_phi(gse, pos, q)
    ref = np.concatenate([potential(gse.make_plan(pos[i : i + 1]), phi) for i in range(n)])
    perm = rng.permutation(n)
    np.testing.assert_array_equal(potential(gse.make_plan(pos[perm]), phi), ref[perm])


# -- the rows come from tables: np.mod and cells * h, element for element ------


def mod_rows(gse, positions):
    """The rows as ``np.mod`` and ``cells * h`` compute them (no table)."""
    pos = gse.box.wrap(np.asarray(positions, dtype=np.float64))
    base = np.floor(pos / gse.h).astype(np.int64)
    inv_2ss2 = 1.0 / (2.0 * gse.params.sigma_s**2)
    rows = []
    for a, c in enumerate(gse._offsets):
        cells = base[:, a : a + 1] + np.arange(-c, c + 1)[None, :]
        d = pos[:, a : a + 1] - cells * gse.h[a]
        w = np.exp(-(d * d) * inv_2ss2)
        if a == 0:
            w = w * gse._spread_norm
        rows.append((w, d, np.mod(cells, gse.mesh[a]).astype(np.int32)))
    return rows


def assert_rows_are_mod_rows(gse, positions):
    plan = gse.make_plan(positions)
    with np.errstate(invalid="ignore"):
        want = mod_rows(gse, positions)
    for a, (w, d, i) in enumerate(want):
        np.testing.assert_array_equal(plan.axis_i[a], i, err_msg=f"axis {a} index")
        np.testing.assert_array_equal(plan.axis_d[a].view(np.int64), d.view(np.int64))
        np.testing.assert_array_equal(plan.axis_w[a].view(np.int64), w.view(np.int64))


#: A box whose last double below L lands on base cell m on meshes that
#: are not powers of two (h = L / m is rounded down there); on a power-of-
#: two mesh h is exact and no wrapped coordinate reaches base m.
EDGE_SIDE = 14.661059133140746


@given(scene())
@settings(max_examples=40, deadline=None)
def test_table_rows_are_mod_rows(args):
    n, seed = args
    rng = np.random.default_rng(seed)
    assert_rows_are_mod_rows(make_gse(), rng.uniform(-1.5, 2.5, (n, 3)) * SIDE)


def test_base_cell_m_reads_the_table_end():
    box = Box.cubic(EDGE_SIDE)
    gse = GaussianSplitEwald(box, GSEParams.choose(box, 5.0, (24, 24, 24)))
    edge = np.nextafter(EDGE_SIDE, 0.0)
    assert np.floor(edge / gse.h[0]) == 24  # the case under test
    pos = np.array([[edge, edge, edge], [edge, 0.0, 1.0], [0.0, 5e-324, edge], [7.0, 7.0, 7.0]])
    assert_rows_are_mod_rows(gse, pos)


def test_stencils_wider_than_the_mesh():
    """2c + 1 exceeds m on x and z and equals it on y: a row wraps the
    mesh more than once, and the table holds every wrap."""
    box = Box(np.array([EDGE_SIDE, EDGE_SIDE, 15.0]))
    gse = GaussianSplitEwald(box, GSEParams(sigma=2.0, sigma_s=1.0, mesh=(6, 5, 4),
                                            spreading_cutoff=5.0))
    assert [2 * c + 1 for c in gse._offsets] == [7, 5, 5]
    rng = np.random.default_rng(2)
    pos = rng.uniform(0.0, 1.0, (60, 3)) * box.lengths
    pos[0] = np.nextafter(box.lengths, 0.0)
    pos[1] = 0.0
    assert_rows_are_mod_rows(gse, pos)


def test_a_non_finite_coordinate_takes_the_mod_rows():
    """A NaN or an infinity has no base cell in [0, m]: those rows are
    computed, not read, and come out as np.mod makes them."""
    gse = make_gse()
    pos = np.random.default_rng(4).uniform(0.0, SIDE, (8, 3))
    pos[3, 1] = np.nan
    pos[5, 2] = np.inf
    with np.errstate(invalid="ignore"):
        assert_rows_are_mod_rows(gse, pos)

"""Property tests of the shared mesh stencil plan.

The machine backends build :class:`~repro.ewald.MeshStencilPlan` objects
per mesh evaluation and run charge spreading and force interpolation from
them — one plan over all atoms, or (the serial backend) one per
simulated node over the atoms it owns.  These properties pin down the
bitwise contract that makes that safe: under quantized
(``mesh_codec``-style) arithmetic a plan's kernels give the same bits
for any atom permutation and any partition of the atoms over plans.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import Box
from tests.mesh_stencil import encode, potential

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
    gse.make_plan(encode(gse, pos)).spread_codes(q, acc, MESH_CODEC)
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
    gse.make_plan(encode(gse, pos)).spread_codes(q, ref, MESH_CODEC)

    perm = rng.permutation(n)
    acc = np.zeros_like(ref)
    gse.make_plan(encode(gse, pos[perm])).spread_codes(q[perm], acc, MESH_CODEC)
    np.testing.assert_array_equal(acc, ref)


@given(scene())
@settings(max_examples=25, deadline=None)
def test_plan_forces_match_independent_path_under_permutation(params):
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)
    phi = quantized_phi(gse, pos, q)

    ref = gse.make_plan(encode(gse, pos)).interpolate_forces(q, phi)

    perm = rng.permutation(n)
    f = gse.make_plan(encode(gse, pos[perm])).interpolate_forces(q[perm], phi)
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
    plan = gse.make_plan(encode(gse, pos))

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
            sub = gse.make_plan(encode(gse, pos[rows]))
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
    ref = np.concatenate(
        [potential(gse.make_plan(encode(gse, pos[i : i + 1])), phi) for i in range(n)]
    )
    perm = rng.permutation(n)
    np.testing.assert_array_equal(potential(gse.make_plan(encode(gse, pos[perm])), phi), ref[perm])


# -- the rows are exact: cells, offsets and one rounding, from the codes ------


def exact_rows(gse, codes):
    """The rows as the plan's contract states them, from exact rationals:
    per atom and axis, the cell ``b = floor(c·m / 2**40)``, stencil point
    ``o`` at mesh index ``(b + o) mod m`` and displacement
    ``x − (b + o)·h`` of the exact coordinate ``x = c·L / 2**40``,
    correctly rounded once (``float`` of a ``Fraction``), and the weights
    the plan's ufuncs make of that displacement."""
    inv_2ss2 = 1.0 / (2.0 * gse.params.sigma_s**2)
    rows = []
    for a, c in enumerate(gse._offsets):
        m, h = int(gse.mesh[a]), Fraction(float(gse.h[a]))
        d = np.empty((len(codes), 2 * c + 1))
        idx = np.empty(d.shape, dtype=np.int32)
        for n, code in enumerate(codes[:, a].tolist()):
            b = code * m >> 40
            for k, o in enumerate(range(-c, c + 1)):
                d[n, k] = float(Fraction(code * m - (b + o) * 2**40, 2**40) * h)
                idx[n, k] = (b + o) % m
        w = np.exp(-(d * d) * inv_2ss2)
        if a == 0:
            w = w * gse._spread_norm
        rows.append((w, d, idx))
    return rows


def assert_rows_are_exact(gse, codes):
    plan = gse.make_plan(codes)
    for a, (w, d, i) in enumerate(exact_rows(gse, codes)):
        np.testing.assert_array_equal(plan.axis_i[a], i, err_msg=f"axis {a} index")
        np.testing.assert_array_equal(plan.axis_d[a].view(np.int64), d.view(np.int64))
        np.testing.assert_array_equal(plan.axis_w[a].view(np.int64), w.view(np.int64))


@given(scene())
@settings(max_examples=40, deadline=None)
def test_rows_are_the_exact_rows_of_the_codes(args):
    n, seed = args
    rng = np.random.default_rng(seed)
    assert_rows_are_exact(make_gse(), rng.integers(0, 2**40, (n, 3)))


def test_codes_at_the_mask_edges_read_the_first_and_last_cells():
    """Codes 0 and ``2**40 − 1`` (the box's two faces), the half-box code,
    and the codes either side of cell boundaries on a non-cubic box."""
    box = Box(np.array([SIDE, 14.661059133140746, 23.5]))
    gse = GaussianSplitEwald(box, GSEParams.choose(box, 5.0, (32, 32, 64)))
    codes = [[0, 0, 0], [2**40 - 1] * 3, [2**39] * 3, [0, 2**40 - 1, 2**39]]
    for m in (32, 64):
        for k in (1, m // 2, m - 1):
            edge = k * 2**40 // m
            codes += [[edge - 1] * 3, [edge] * 3, [edge + 1] * 3]
    plan_codes = np.array(codes, dtype=np.int64)
    assert_rows_are_exact(gse, plan_codes)
    base = gse.make_plan(plan_codes).axis_i[0][:, gse._offsets[0]]
    assert base[0] == 0 and base[1] == 31  # the faces: the first and the last cell


def test_stencils_wider_than_the_mesh():
    """2c + 1 exceeds m on x and z and equals it on y, on a mesh that is
    not powers of two: a row wraps the mesh more than once, and every
    index is the mod of its cell."""
    side = 14.661059133140746
    box = Box(np.array([side, side, 15.0]))
    gse = GaussianSplitEwald(box, GSEParams(sigma=2.0, sigma_s=1.0, mesh=(6, 5, 4),
                                            spreading_cutoff=5.0))
    assert [2 * c + 1 for c in gse._offsets] == [7, 5, 5]
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 2**40, (60, 3))
    codes[0] = 2**40 - 1
    codes[1] = 0
    assert_rows_are_exact(gse, codes)

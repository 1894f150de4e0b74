"""Property tests of the shared mesh stencil plan.

The machine backends build :class:`~repro.ewald.MeshStencilPlan` objects
per mesh evaluation and run charge spreading and force interpolation from
them — one plan over all atoms, or (the serial backend) one per
simulated node over the atoms it owns.  These properties pin down the
bitwise contract that makes that safe: under quantized
(``mesh_codec``-style) arithmetic the plan kernels must be exactly
equivalent to the independent GSE passes, for any atom permutation and
any partition of the atoms over plans.
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
    return GaussianSplitEwald(box, GSEParams.choose(box, 5.0, (24, 24, 24)))


def random_atoms(rng, n):
    pos = rng.uniform(0, SIDE, (n, 3))
    q = rng.uniform(-1, 1, n)
    return pos, q


@given(scene())
@settings(max_examples=25, deadline=None)
def test_plan_spread_matches_independent_path_under_permutation(params):
    n, seed = params
    rng = np.random.default_rng(seed)
    gse = make_gse()
    pos, q = random_atoms(rng, n)

    ref = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    gse.spread_contributions(pos, q, ref, MESH_CODEC)

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
    phi, _ = gse.solve(gse.spread(pos, q, codec=MESH_CODEC))

    ref = gse.interpolate_forces(pos, q, phi)

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
    phi, _ = gse.solve(gse.spread(pos, q, codec=MESH_CODEC))
    ref = np.concatenate([potential(gse.make_plan(pos[i : i + 1]), phi) for i in range(n)])
    perm = rng.permutation(n)
    np.testing.assert_array_equal(potential(gse.make_plan(pos[perm]), phi), ref[perm])

"""Property-based tests of the NT assignment rule."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, neighbor_pairs
from repro.parallel import (
    SpatialDecomposition,
    TorusTopology,
    nt_assign_pairs,
)

dims_strategy = st.sampled_from([(1, 1, 1), (2, 2, 2), (4, 4, 4), (4, 2, 2), (8, 2, 1)])


def scene():
    return st.tuples(
        dims_strategy,
        st.integers(5, 40),
        st.integers(0, 2**31 - 1),
    )


@given(scene())
@settings(max_examples=40, deadline=None)
def test_nt_assignment_valid_and_swap_invariant(params):
    dims, n, seed = params
    box = Box.cubic(24.0)
    decomp = SpatialDecomposition(box, TorusTopology(dims))
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 24, (n, 3))
    pairs = neighbor_pairs(pos, box, 6.0)
    if not len(pairs.i):
        return
    a = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
    b = nt_assign_pairs(decomp, pos, pairs.j, pairs.i)
    np.testing.assert_array_equal(a.node, b.node)
    assert np.all((a.node >= 0) & (a.node < decomp.torus.n_nodes))


@given(st.integers(5, 40), st.integers(0, 2**31 - 1), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_nt_assignment_translation_covariant(n, seed, axis):
    """Shifting all atoms by one node-box length along an axis shifts
    every pair's computing node by one along that axis.

    Restricted to a 4x4x4 torus with a sub-box cutoff: covariance is
    exact only away from the |delta| == dims/2 wrap ties, whose
    raw-coordinate tie-break is deterministic but not shift-covariant.
    """
    dims = (4, 4, 4)
    box = Box.cubic(24.0)
    topo = TorusTopology(dims)
    decomp = SpatialDecomposition(box, topo)
    rng = np.random.default_rng(seed)
    # Keep atoms off box-boundary edges so the shift cannot reassign
    # home boxes through rounding.
    pos = rng.uniform(0.05, 23.95, (n, 3))
    margin = 0.02 * decomp.node_box[axis]
    frac = np.mod(pos[:, axis], decomp.node_box[axis])
    pos = pos[(frac > margin) & (frac < decomp.node_box[axis] - margin)]
    if len(pos) < 2:
        return
    pairs = neighbor_pairs(pos, box, 5.0)
    if not len(pairs.i):
        return
    a = nt_assign_pairs(decomp, pos, pairs.i, pairs.j)
    shift = np.zeros(3)
    shift[axis] = decomp.node_box[axis]
    b = nt_assign_pairs(decomp, box.wrap(pos + shift), pairs.i, pairs.j)
    expected = np.array(
        [
            topo.node_id(tuple(np.add(topo.coord(int(nd)), np.eye(3, dtype=int)[axis])))
            for nd in a.node
        ]
    )
    np.testing.assert_array_equal(b.node, expected)

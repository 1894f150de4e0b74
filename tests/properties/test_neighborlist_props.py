"""Property tests: the buffered Verlet list is indistinguishable from a
fresh brute-force search for random boxes, cutoffs, skins, and motion
histories — rebuilt by the NumPy suite and by the compiled one, whose
rows grow and resume while a fresh list first fills its buffers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, NeighborList, NeighborPairs, brute_force_pairs
from repro.geometry.cells import within
from repro.geometry.neighborlist import rows_to_pairs
from repro.kernels import NUMPY_SUITE, available, get_suite

#: Every suite each property runs on: the compiled one (one thread)
#: where the host builds it.
SUITES = (NUMPY_SUITE, get_suite("compiled", 1)) if available() else (NUMPY_SUITE,)


def _walk(nl):
    """The walk that hands back the within-cutoff pairs themselves."""
    return lambda wrapped, row_ptr, partners, _lengths: within(
        wrapped, nl.box, *rows_to_pairs(row_ptr, partners), nl.cutoff * nl.cutoff
    )


def _assert_same_pairs(a, b):
    np.testing.assert_array_equal(a.i, b.i)
    np.testing.assert_array_equal(a.j, b.j)
    np.testing.assert_array_equal(a.dx, b.dx)
    np.testing.assert_array_equal(a.r2, b.r2)


@given(
    side=st.floats(10.0, 50.0),
    n=st.integers(2, 120),
    cutoff_frac=st.floats(0.1, 0.49),
    skin=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_buffered_list_matches_brute_force(side, n, cutoff_frac, skin, seed):
    box = Box.cubic(side)
    cutoff = side * cutoff_frac
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, side, size=(n, 3))
    for kernels in SUITES:
        nl = NeighborList(box, cutoff, skin=skin, kernels=kernels)
        _assert_same_pairs(nl.pairs(pos, _walk(nl)), brute_force_pairs(box.wrap(pos), box, cutoff))


@given(
    side=st.floats(12.0, 40.0),
    n=st.integers(16, 100),
    skin=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**31),
    n_moves=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_buffered_list_correct_along_a_trajectory(side, n, skin, seed, n_moves):
    """Random walks through rebuild-triggering and reusing regimes both
    give exactly the brute-force pair set at every visited configuration."""
    box = Box.cubic(side)
    cutoff = side / 4.0
    rng = np.random.default_rng(seed)
    path = [rng.uniform(0, side, size=(n, 3))]
    for _ in range(n_moves):
        # Mix small (reuse) and large (rebuild) displacements.
        scale = rng.choice([0.1 * skin, 2.0 * skin])
        path.append(path[-1] + rng.uniform(-scale, scale, size=(n, 3)))
    for kernels in SUITES:
        nl = NeighborList(box, cutoff, skin=skin, kernels=kernels)
        for pos in path[1:]:
            _assert_same_pairs(
                nl.pairs(pos, _walk(nl)), brute_force_pairs(box.wrap(pos), box, cutoff)
            )
        assert nl.n_builds + nl.n_reuses == n_moves


@given(
    side=st.floats(12.0, 40.0),
    n=st.integers(16, 80),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_forced_rebuild_changes_nothing(side, n, seed):
    box = Box.cubic(side)
    cutoff = side / 4.0
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, side, size=(n, 3))
    for kernels in SUITES:
        nl = NeighborList(box, cutoff, skin=2.0, kernels=kernels)
        # pairs() returns views of the list's scratch: keep a copy.
        before = NeighborPairs(*(a.copy() for a in vars(nl.pairs(pos, _walk(nl))).values()))
        nl.build(pos)
        _assert_same_pairs(before, nl.pairs(pos, _walk(nl)))

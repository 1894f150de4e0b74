"""Property tests: every suite's ``neighbor_build`` == a brute-force oracle.

The rebuild is defined by set and order — every same-block pair
``i < j`` passing the cutoff filter's predicate at ``reach``, minus the
excluded and 1-4 partners, sorted by ``(i, j)`` — so whatever binning
the C cell sweep and the NumPy cell pipeline pick, both must reproduce
a per-block brute-force oracle (masked by ``ExclusionTable.is_excluded``)
element for element.  The cases are built
to land on every branch of both binnings, on both sides of the ``n <
64`` brute-force threshold, on the box faces and on the strict ``<`` of
the predicate; deterministic ones pin the C sweep's column runs (a
z-window that wraps, an axis of exactly seven cells, an unbinned axis
under binned ones).  A rebuild sweeps every row once, also when its
pairs outgrow the buffers and the sweep resumes.

Skipped wholesale when the host has no C compiler.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import tile_exclusions
from repro.forcefield import Topology, build_exclusions
from repro.geometry import Box, EnsembleNeighborList, NeighborList, brute_force_pairs
from repro.geometry.cells import _choose_binning, within
from repro.geometry.neighborlist import rows_to_pairs
from repro.kernels import available, get_suite

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

CUTOFF, SKIN = 2.5, 0.5
REACH = CUTOFF + SKIN  # exactly 3.0, so r2 == reach2 is constructible
CHAIN = 5              # atoms per molecule: 1-2, 1-3 and 1-4 partners, one free pair

#: Box side per axis in units of REACH.  2.05-2.3 admit no binning
#: (fewer than seven cells of reach/3); 2.4 upward bin at k=3 when the
#: atoms are dense, and the sparse 6-24 push the NumPy path's cell-count
#: guard to k=2, k=1 and back to none (the C side's per-axis cap lands
#: on k=2 and k=1 for the same boxes).
RATIOS = (2.05, 2.3, 2.4, 3.2, 6.0, 8.0, 12.0, 24.0)


def _walk(nl):
    """The walk that hands back the within-cutoff pairs themselves."""
    return lambda wrapped, row_ptr, partners, _lengths: within(
        wrapped, nl.box, *rows_to_pairs(row_ptr, partners), nl.cutoff * nl.cutoff
    )


def _pairs(nl):
    """The list's rows as ``(i, j)`` pairs."""
    return rows_to_pairs(nl._row_ptr, nl._partners)


def _chain_exclusions(n: int):
    top = Topology(n)
    for start in range(0, n - CHAIN + 1, CHAIN):
        for a in range(start, start + CHAIN - 1):
            top.add_bond(a, a + 1, 100.0, 1.0)
    return build_exclusions(top)


def _positions(rng, lengths, n):
    """Half uniform, half within ~reach of an earlier atom, plus the edge cases."""
    pos = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    for a in range(max(1, n // 2), n):
        step = rng.normal(size=3)
        step *= rng.uniform(0.2, 1.2) * REACH / np.linalg.norm(step)
        pos[a] = pos[rng.integers(0, a)] + step
    if n >= 8:
        pos[0] = 0.0                                  # on the low faces
        pos[1] = lengths                              # exactly L: wraps to 0
        pos[2] = np.nextafter(lengths, 0.0)           # last double below L
        pos[3] = [-1e-300, lengths[1] / 2, 0.0]       # np.mod returns L here
        # 5-6 sit at r2 == reach2 exactly (out, by the strict <) and 5-7
        # one ulp inside; z starts from 0 so both differences are exact.
        # They are 1-2/1-3 partners in the chain topology, so the edge
        # is asserted with exclusions off.
        pos[5] = [1.0, 2.0, 0.0]
        pos[6] = [1.0 + REACH, 2.0, 0.0]
        pos[7] = [1.0, 2.0, np.nextafter(REACH, 0.0)]
    return pos


def _oracle(wrapped, box, excl, replicas, n_solo):
    ii, jj = [], []
    for r in range(replicas):
        bf = brute_force_pairs(wrapped[r * n_solo : (r + 1) * n_solo], box, REACH)
        ii.append(bf.i + r * n_solo)
        jj.append(bf.j + r * n_solo)
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    if excl is not None:
        keep = ~excl.is_excluded(ii, jj)
        ii, jj = ii[keep], jj[keep]
    return ii, jj


def _check(lengths, n_solo, replicas, with_excl, seed, solo=None):
    """Both suites' list == the oracle; ``solo`` overrides the positions."""
    box = Box(np.asarray(lengths, dtype=np.float64))
    if solo is None:
        solo = _positions(np.random.default_rng(seed), box.lengths, n_solo)
    n_solo = len(solo)
    # Replicas start from identical coordinates, as ensembles do: shared
    # binning would pair every atom with its twins at distance zero.
    pos = np.tile(solo, (replicas, 1))
    excl = None
    if with_excl:
        excl = _chain_exclusions(n_solo)
        if replicas > 1:
            excl = tile_exclusions(excl, replicas)

    def make(kernels):
        if replicas == 1:
            return NeighborList(box, CUTOFF, skin=SKIN, exclusions=excl, kernels=kernels)
        return EnsembleNeighborList(
            box, CUTOFF, replicas, n_solo, skin=SKIN, exclusions=excl, kernels=kernels
        )

    ref, fast = make(get_suite("numpy")), make(get_suite("compiled"))
    assert ref.reach == fast.reach == REACH
    ref.build(pos)
    fast.build(pos)
    want_i, want_j = _oracle(box.wrap(pos), box, excl, replicas, n_solo)
    for got in (ref, fast):
        got_i, got_j = _pairs(got)
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_j, want_j)
        assert got._row_ptr.dtype == np.int64 and got._partners.dtype == np.int32
    assert fast.n_candidates == ref.n_candidates == len(want_i)
    # Same list in, same filtered pairs out — all four arrays.
    a, b = ref.pairs(pos, _walk(ref)), fast.pairs(pos, _walk(fast))
    for name in ("i", "j", "dx", "r2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    return fast


@given(
    ratios=st.tuples(*[st.sampled_from(RATIOS)] * 3),
    n_solo=st.one_of(st.integers(0, 63), st.integers(64, 150)),
    replicas=st.sampled_from([1, 3]),
    with_excl=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_neighbor_build_matches_numpy_pipeline(ratios, n_solo, replicas, with_excl, seed):
    _check(np.array(ratios) * REACH, n_solo, replicas, with_excl, seed)


@pytest.mark.parametrize(
    "ratios,n,numpy_k",
    [
        ((2.05, 2.3, 2.2), 90, None),    # too short for seven cells: none
        ((2.4, 3.2, 2.6), 200, 3),       # dense: finest refinement
        ((8.0, 8.0, 8.0), 66, 2),        # 24^3 cells > 64 n (R=1 and 3): falls to k=2
        ((12.0, 12.0, 12.0), 66, 1),     # ... and 24^3 again at k=2: falls to k=1
        ((24.0, 24.0, 24.0), 66, None),  # even k=1 has too many cells: none
        ((12.0, 2.05, 6.0), 40, None),   # n < 64: brute force whatever the box
        ((12.0, 2.05, 6.0), 130, None),  # one unbinned axis stops the NumPy path only
    ],
)
@pytest.mark.parametrize("replicas", [1, 3])
def test_every_binning_branch(ratios, n, numpy_k, replicas):
    """The listed cases really are on the branch their comment names."""
    lengths = np.array(ratios) * REACH
    binning = (
        None if n < 64
        else _choose_binning(np.empty((n * replicas, 3)), Box(lengths), REACH, replicas)
    )
    if numpy_k is None:
        assert binning is None
    else:
        np.testing.assert_array_equal(binning[0], np.floor(lengths * numpy_k / REACH))
    for with_excl in (False, True):
        _check(lengths, n, replicas, with_excl, seed=n)


def test_strict_cutoff_edge_and_box_faces():
    """r2 == reach2 is out, one ulp inside is in; atoms at 0 and L pair up."""
    fast = _check(np.array([3.2, 2.4, 6.0]) * REACH, 80, 1, False, seed=5)
    pairs = set(zip(*(a.tolist() for a in _pairs(fast))))
    assert (5, 6) not in pairs and (5, 7) in pairs
    assert {(0, 1), (0, 2), (1, 2)} <= pairs  # 0 and wrapped-L coincide; L-ulp is adjacent


def _face_slabs(rng, lengths, n, axis):
    """``n`` atoms, a third of them within reach/3 of each face of ``axis``
    (the first and the last cell there), the rest uniform."""
    pos = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
    slab = rng.uniform(0.0, REACH / 3, size=n)
    third = n // 3
    pos[:third, axis] = slab[:third]
    pos[third : 2 * third, axis] = lengths[axis] - slab[third : 2 * third]
    return pos


@pytest.mark.parametrize(
    "ratios,axis,replicas,with_excl",
    [
        ((3.2, 3.6, 4.0), 2, 1, True),   # 11 z cells: windows wrap past both ends
        ((4.0, 3.2, 2.5), 2, 1, False),  # exactly seven z cells: the window is the whole axis
        ((2.5, 4.0, 3.2), 0, 1, True),   # ... and seven x cells: offsets -3..3 hit every column
        ((4.0, 3.6, 2.2), 2, 1, True),   # binned x/y over an unbinned z
        ((2.05, 2.2, 2.3), 1, 1, False), # no axis binned: one cell, all pairs
        ((3.2, 3.6, 4.0), 2, 3, True),   # R=3 stacked blocks with chain exclusions
    ],
)
def test_column_runs_match_oracle(ratios, axis, replicas, with_excl):
    """The C sweep's column runs offer every pair: wrapped, whole and
    unbinned z-windows, single-cell boxes and stacked blocks."""
    lengths = np.array(ratios) * REACH
    solo = _face_slabs(np.random.default_rng(axis), lengths, 240, axis)
    _check(lengths, len(solo), replicas, with_excl, seed=0, solo=solo)


def _c_binned_axes(lengths) -> int:
    """How many axes the C sweep bins: those that fit seven cells of
    width >= reach/3 (``rk_neighbor_build``)."""
    return int(np.sum(np.floor(3.0 * lengths / (REACH * (1.0 + 1e-9))) >= 7.0))


@pytest.mark.parametrize(
    "ratios,replicas,binned",
    [
        ((2.05, 2.2, 2.3), 3, 0),  # one cell: each row sweeps its suffix j > i
        ((4.0, 2.2, 2.3), 1, 1),   # one binned axis over two unbinned ones
        ((3.2, 3.6, 4.0), 1, 3),   # every axis binned
    ],
)
def test_one_cell_suffix_sweep_and_binned_sweeps(ratios, replicas, binned):
    """A box with no binned axis is one cell in id order, where each row
    sweeps only the slots after its own; with exclusions across R > 1
    blocks its list is the NumPy one, and so are those of a box with one
    binned axis and of one with all three."""
    lengths = np.array(ratios) * REACH
    assert _c_binned_axes(lengths) == binned
    solo = _face_slabs(np.random.default_rng(binned), lengths, 200, 2)
    _check(lengths, len(solo), replicas, True, seed=0, solo=solo)


class _SweepLog:
    """The compiled suite's library with ``rk_neighbor_build`` wrapped to
    record, per call, the rows ``[first, end)`` it swept to emission
    (read from the cursor ``[row, pairs]``, its last argument)."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def rk_neighbor_build(self, *args):
        at = (ctypes.c_int64 * 2).from_address(args[11])
        first = at[0]
        out = self._lib.rk_neighbor_build(*args)
        self.calls.append((first, at[0]))
        return out

    def rows_swept_once(self, n_rows: int) -> bool:
        ends = [0]
        for first, end in self.calls:
            if first != ends[-1]:
                return False
            ends.append(end)
        return ends[-1] == n_rows


def test_buffer_growth_rebuild_returns_full_list(monkeypatch):
    """A rebuild whose count outgrows the candidate buffers grows them,
    resumes at the row that did not fit, and is complete; every row is
    swept once, the fresh list's first build included."""
    box = Box(np.array([4.0, 5.0, 6.0]) * REACH)
    rng = np.random.default_rng(3)
    sparse = rng.uniform(0.0, 1.0, size=(160, 3)) * box.lengths
    dense = sparse.copy()
    dense[:120] = box.lengths / 2 + rng.normal(scale=0.4 * REACH, size=(120, 3))
    suite = get_suite("compiled")
    log = _SweepLog(suite._lib)
    monkeypatch.setattr(suite, "_lib", log)
    ref = NeighborList(box, CUTOFF, skin=SKIN)
    fast = NeighborList(box, CUTOFF, skin=SKIN, kernels=suite)
    fast.build(sparse)                      # empty buffers: stops at row 0, grows, resumes
    assert len(log.calls) > 1 and log.rows_swept_once(160)
    cap = len(fast._bufs[1])
    for k, pos in enumerate((dense, sparse, dense)):
        log.calls.clear()
        ref.build(pos)
        fast.build(pos)
        assert log.rows_swept_once(160)
        if k == 0:                          # the dense list grows and resumes
            assert len(log.calls) > 1
        np.testing.assert_array_equal(fast._row_ptr, ref._row_ptr)
        np.testing.assert_array_equal(fast._partners, ref._partners)
    assert fast.n_candidates > cap          # the dense list did not fit the first buffers
    row_ptr, grown = fast._bufs
    log.calls.clear()
    fast.build(dense)
    assert log.calls == [(0, 160)]          # steady state: one call, every row
    assert fast._bufs[1] is grown           # ... and no reallocation
    assert fast._partners.base is grown     # prefix view of the list-owned buffer
    assert fast._row_ptr is row_ptr         # the rows' offsets: the buffer itself


def test_fresh_stacked_list_sweeps_every_row_once(monkeypatch):
    """The first build of a fresh R=3 list sweeps each row once, chain
    exclusions and block boundaries included."""
    lengths = np.array([3.2, 3.6, 4.0]) * REACH
    solo = _positions(np.random.default_rng(11), lengths, 150)
    suite = get_suite("compiled")
    log = _SweepLog(suite._lib)
    monkeypatch.setattr(suite, "_lib", log)
    _check(lengths, len(solo), 3, True, seed=0, solo=solo)
    assert len(log.calls) > 1 and log.rows_swept_once(3 * 150)

"""Property tests: every suite's ``neighbor_build`` == a brute-force oracle.

The rebuild is defined by set and order — every same-block pair
``i < j`` passing the cutoff filter's predicate at ``reach``, minus the
excluded and 1-4 partners, sorted by ``(i, j)`` — so whatever binning
the C cluster sweep and the NumPy cell pipeline pick, both must reproduce
a per-block brute-force oracle (masked by ``ExclusionTable.is_excluded``)
element for element.  The cases are built
to land on every branch of both binnings, on both sides of the ``n <
64`` brute-force threshold, on the box faces and on the strict ``<`` of
the predicate; deterministic ones pin the C sweep's column runs (a
z-window that wraps, an axis of exactly seven cells, an unbinned axis
under binned ones).  Which axes the C sweep bins is a cost model's
choice that the rows cannot show, so the C entry point is also called
with each of the eight shapes forced.  A rebuild sweeps every row once,
also when its pairs outgrow the buffers and the sweep resumes.  The C
sweep matches clusters of tied consecutive atoms before it tests atoms,
so the last group of cases builds exclusion CSRs whose clusters sit on
every edge of that match: across faces, wider than a cell, longer or
broken tied runs, singletons, block boundaries, a resume mid-cluster.

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
from repro.geometry.neighborlist import _partner_csr, rows_to_pairs
from repro.kernels import available, get_suite
from repro.kernels.suite import _ptr

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
    unbinned z-windows, single-cell boxes and stacked blocks, under the
    cost model's shape and each forced one."""
    lengths = np.array(ratios) * REACH
    solo = _face_slabs(np.random.default_rng(axis), lengths, 240, axis)
    _check(lengths, len(solo), replicas, with_excl, seed=0, solo=solo)
    _assert_every_shape(Box(lengths), solo, replicas, with_excl)


def _c_binned_axes(lengths) -> int:
    """How many axes the C anchor sweep can bin when every cluster is a
    single atom: those that fit seven cells of width >= reach/3
    (``rk_neighbor_build``, whose anchor reach widens by twice the
    largest cluster radius; its cost model picks which of them it cuts,
    and ``test_every_sweep_shape_gives_the_oracle_rows`` forces each
    choice)."""
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
    """A box with no binnable axis is one cell in cluster order, where
    each cluster sweeps only the anchors after its own; with exclusions
    across R > 1 blocks its list is the NumPy one, and so are those of a
    box with one binnable axis and of one with all three."""
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
        np.testing.assert_array_equal(fast._partners[: fast.n_candidates], ref._partners)
    assert fast.n_candidates > cap          # the dense list did not fit the first buffers
    row_ptr, grown = fast._bufs
    log.calls.clear()
    fast.build(dense)
    assert log.calls == [(0, 160)]          # steady state: one call, every row
    assert fast._bufs[1] is grown           # ... and no reallocation
    assert fast._partners is grown          # the list-owned buffer itself, not a view
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


def _shape_rows(lengths, pos, excl, n_blocks, shape):
    """``rk_neighbor_build``'s rows with the sweep shape forced: ``shape``
    is the mask of axes to cut (-1: the cost model's choice)."""
    lib = get_suite("compiled")._lib
    n = len(pos)
    block_len = n // n_blocks
    work = np.empty(int(lib.rk_neighbor_work_size(block_len)), dtype=np.int64)
    row_ptr = np.empty(n + 1, dtype=np.int64)
    partners = np.empty(n * block_len // 2 + 1, dtype=np.int32)
    at = np.zeros(2, dtype=np.int64)
    ptr, idx = (None, None) if excl is None else (_ptr(excl[0]), _ptr(excl[1]))
    assert lib.rk_neighbor_build(
        n_blocks, block_len, _ptr(pos), _ptr(lengths), REACH, ptr, idx, _ptr(work),
        _ptr(row_ptr), _ptr(partners), len(partners), _ptr(at), shape,
    ) == 0
    return row_ptr, partners[: at[1]]


@given(
    ratios=st.tuples(*[st.sampled_from((2.05, 2.4, 2.9, 3.2, 4.5, 6.0, 8.0))] * 3),
    n_solo=st.integers(1, 260),
    replicas=st.sampled_from([1, 2]),
    with_excl=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_every_sweep_shape_gives_the_oracle_rows(ratios, n_solo, replicas, with_excl, seed):
    """The rows are defined by set and order, so every shape of the sweep
    — no axis cut (each row's suffix), any one, two or all three of the
    axes that fit seven cells — and the cost model's pick give the same
    rows, on boxes 2 to 8 reaches wide."""
    box = Box(np.array(ratios) * REACH)
    solo = _positions(np.random.default_rng(seed), box.lengths, n_solo)
    _assert_every_shape(box, solo, replicas, with_excl)


def _assert_every_shape(box, solo, replicas, with_excl):
    """Each forced sweep shape, and the cost model's, gives the oracle's
    rows for ``replicas`` copies of ``solo``."""
    n_solo = len(solo)
    pos = np.ascontiguousarray(np.tile(box.wrap(solo), (replicas, 1)))
    excl = None
    if with_excl:
        excl = _chain_exclusions(n_solo)
        if replicas > 1:
            excl = tile_exclusions(excl, replicas)
    want_i, want_j = _oracle(pos, box, excl, replicas, n_solo)
    csr = None if excl is None else _partner_csr(excl)
    for shape in (-1, *range(8)):
        row_ptr, partners = _shape_rows(box.lengths, pos, csr, replicas, shape)
        got_i, got_j = rows_to_pairs(row_ptr, partners)
        np.testing.assert_array_equal(got_i, want_i, err_msg=f"shape {shape}")
        np.testing.assert_array_equal(got_j, want_j, err_msg=f"shape {shape}")


# -- clusters --------------------------------------------------------------
#
# The C sweep matches clusters first: runs of at most four consecutive
# atoms of one block tied to their first atom by the exclusion CSR, each
# with a radius from the wrapped positions.  The cases below build the
# CSR directly, so the clusters are whatever the test says, and compare
# the C rows under every sweep shape with the NumPy suite's.


def _csr(pairs, n):
    """The exclusion CSR ``(ptr, idx)`` of ``(i, j)`` pairs, each row ascending."""
    pairs = np.asarray(sorted({(min(a, b), max(a, b)) for a, b in pairs}), dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=ptr[1:])
    return ptr, np.ascontiguousarray(pairs[:, 1])


def _water_pairs(n, stride=3):
    """Water-like triples ``(k, k+1, k+2)`` every ``stride`` atoms, all
    three pairs excluded."""
    out = []
    for k in range(0, n - 2, stride):
        out += [(k, k + 1), (k, k + 2), (k + 1, k + 2)]
    return out


def _assert_c_rows_equal_numpy(lengths, pos, pairs, n_blocks=1):
    """C rows under every shape == the NumPy suite's rows."""
    lengths = np.asarray(lengths, dtype=np.float64)
    pos = np.ascontiguousarray(Box(lengths).wrap(np.asarray(pos, dtype=np.float64)))
    n = len(pos)
    csr = None if pairs is None else _csr(pairs, n)
    want_ptr, want = get_suite("numpy").neighbor_build(
        pos, lengths, REACH, n_blocks, n // n_blocks, csr, [None, None]
    )
    for shape in (-1, *range(8)):
        row_ptr, partners = _shape_rows(lengths, pos, csr, n_blocks, shape)
        np.testing.assert_array_equal(row_ptr, want_ptr, err_msg=f"shape {shape}")
        np.testing.assert_array_equal(partners, want, err_msg=f"shape {shape}")
    return want_ptr, want


def _water_box(rng, lengths, n_waters, arm):
    """``n_waters`` triples: anchors uniform, the two members ``arm`` from
    their anchor in random directions."""
    anchors = rng.uniform(0.0, 1.0, size=(n_waters, 3)) * lengths
    pos = np.repeat(anchors, 3, axis=0)
    for k in (1, 2):
        step = rng.normal(size=(n_waters, 3))
        pos[k::3] += arm * step / np.linalg.norm(step, axis=1, keepdims=True)
    return pos


@given(
    ratios=st.tuples(*[st.sampled_from((1.5, 2.4, 3.2, 4.5, 8.0))] * 3),
    n_waters=st.integers(1, 90),
    arm=st.sampled_from((0.3, 1.0, 2.5)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_water_clusters_match_numpy_rows(ratios, n_waters, arm, seed):
    """Molecule-shaped clusters of three, small to wider than reach/2,
    on boxes from below two reaches to eight."""
    lengths = np.array(ratios) * REACH
    pos = _water_box(np.random.default_rng(seed), lengths, n_waters, arm)
    _assert_c_rows_equal_numpy(lengths, pos, _water_pairs(len(pos)))


def test_clusters_straddling_periodic_faces():
    """Anchors on each face, members across it: the radius and the anchor
    distances are minimum-image ones."""
    lengths = np.array([4.0, 4.5, 8.0]) * REACH
    rng = np.random.default_rng(1)
    pos = _water_box(rng, lengths, 120, 1.0)
    for k in range(0, 120, 4):  # every fourth water, anchor on a face
        axis = k % 3
        pos[3 * k, axis] = 0.0 if k % 2 else np.nextafter(lengths[axis], 0.0)
        pos[3 * k + 1] = pos[3 * k]
        pos[3 * k + 2] = pos[3 * k]
        pos[3 * k + 1, axis] += 0.7   # across the face from an anchor at L
        pos[3 * k + 2, axis] -= 0.7   # ... or from one at 0
    _assert_c_rows_equal_numpy(lengths, pos, _water_pairs(len(pos)))


def test_cluster_wider_than_a_cell():
    """Members a whole reach from their anchor: a cluster's diameter
    exceeds the width of the anchor cells the sweep cuts."""
    lengths = np.array([9.0, 9.0, 9.0]) * REACH
    pos = _water_box(np.random.default_rng(2), lengths, 150, REACH)
    reach_c = REACH + 2 * REACH      # the sweep's anchor reach: reach + 2 r_max
    cells = np.floor(3.0 * lengths / (reach_c * (1.0 + 1e-9)))
    assert np.all(cells >= 7)        # every axis may be cut ...
    assert np.all(2 * REACH > lengths / cells)  # ... into cells narrower than a cluster
    _assert_c_rows_equal_numpy(lengths, pos, _water_pairs(len(pos)))


def test_exclusion_runs_longer_than_four_and_broken_runs():
    """A run of seven tied atoms makes a cluster of four and one of three;
    a run broken by an untied atom stops at the gap; ties that skip the
    next atom make no cluster."""
    n = 60
    pairs = []
    for base in range(0, n, 20):
        pairs += [(base, base + k) for k in range(1, 7)]          # star 0-1..6
        pairs += [(base + 7, base + 8), (base + 7, base + 9), (base + 7, base + 11)]  # gap at 10
        pairs += [(base + 12, base + 14), (base + 12, base + 15)]  # skips 13
        pairs += [(base + 16, base + 17), (base + 17, base + 18)]  # tied to the next, not the first
    rng = np.random.default_rng(3)
    for ratios in ((3.2, 3.6, 4.0), (8.0, 8.0, 8.0), (2.05, 2.2, 2.3)):
        lengths = np.array(ratios) * REACH
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
        pos[1:7] = pos[0] + rng.normal(scale=0.5, size=(6, 3))
        _assert_c_rows_equal_numpy(lengths, pos, pairs)


@given(
    ratios=st.tuples(*[st.sampled_from((1.5, 2.05, 3.2, 6.0, 8.0))] * 3),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_singleton_only_systems(ratios, n, seed):
    """No CSR at all, and a CSR with no tie to a next atom: every cluster
    is one atom."""
    lengths = np.array(ratios) * REACH
    pos = _positions(np.random.default_rng(seed), lengths, n)
    _assert_c_rows_equal_numpy(lengths, pos, None)
    _assert_c_rows_equal_numpy(lengths, pos, [(k, k + 2) for k in range(0, n - 2, 5)])


@pytest.mark.parametrize("ratios", [(3.2, 3.6, 4.0), (8.0, 8.0, 8.0), (1.5, 1.5, 1.5)])
def test_no_cluster_crosses_a_block(ratios):
    """Ties from the last atoms of a block into the next one form no
    cluster across the boundary; R = 4 blocks of 25 atoms (not a
    multiple of 3, so the water triples of the CSR straddle blocks)."""
    lengths = np.array(ratios) * REACH
    n_blocks, block_len = 4, 25
    n = n_blocks * block_len
    pairs = _water_pairs(n)
    for b in range(n_blocks - 1):
        last = (b + 1) * block_len - 1
        pairs += [(last, last + 1), (last, last + 2), (last - 1, last + 1)]
    pos = _water_box(np.random.default_rng(4), lengths, n // 3 + 1, 1.0)[:n]
    _assert_c_rows_equal_numpy(lengths, pos, pairs, n_blocks)


def test_cap_resume_inside_a_cluster():
    """A sweep stopped by ``cap`` at the second or third atom of a water
    resumes there, through the same cursor, to the one-call rows."""
    lengths = np.array([3.2, 3.6, 4.0]) * REACH
    pos = np.ascontiguousarray(
        Box(lengths).wrap(_water_box(np.random.default_rng(5), lengths, 80, 1.0))
    )
    n = len(pos)
    csr = _csr(_water_pairs(n), n)
    want_ptr, want = _assert_c_rows_equal_numpy(lengths, pos, _water_pairs(n))
    lib = get_suite("compiled")._lib
    work = np.empty(int(lib.rk_neighbor_work_size(n)), dtype=np.int64)
    row_ptr = np.empty(n + 1, dtype=np.int64)
    stops = 0
    for i in range(1, n, 3):          # the H rows: inside a cluster
        for row in (i, i + 1):
            length = int(want_ptr[row + 1] - want_ptr[row])
            if not length:
                continue
            cap = int(want_ptr[row]) + length - 1
            partners = np.empty(cap, dtype=np.int32)
            at = np.zeros(2, dtype=np.int64)
            args = (1, n, _ptr(pos), _ptr(lengths), REACH, _ptr(csr[0]), _ptr(csr[1]),
                    _ptr(work), _ptr(row_ptr))
            assert lib.rk_neighbor_build(*args, _ptr(partners), cap, _ptr(at), -1) == length
            assert at.tolist() == [row, want_ptr[row]]
            grown = np.empty(len(want) + 1, dtype=np.int32)
            grown[:cap] = partners
            assert lib.rk_neighbor_build(*args, _ptr(grown), len(grown), _ptr(at), -1) == 0
            np.testing.assert_array_equal(row_ptr, want_ptr)
            np.testing.assert_array_equal(grown[: at[1]], want)
            stops += 1
    assert stops > 50

"""Unit tests for the buffered Verlet neighbor list."""

import numpy as np
import pytest

from repro.geometry import Box, NeighborList, brute_force_pairs, neighbor_pairs, neighborlist
from repro.geometry.cells import within
from repro.geometry.neighborlist import MAX_ATOMS, check_atom_count, rows_to_pairs


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


def _random_positions(n, box, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, 3)) * box.lengths


class TestNeighborListCorrectness:
    @pytest.mark.parametrize("n,side,cutoff,skin", [
        (200, 20.0, 4.0, 1.5),
        (500, 30.0, 6.5, 2.0),
        (100, 12.0, 3.9, 0.0),
        (40, 10.0, 3.0, 1.0),     # brute-force fallback path
    ])
    def test_matches_brute_force_exactly(self, n, side, cutoff, skin):
        box = Box.cubic(side)
        pos = _random_positions(n, box, n)
        nl = NeighborList(box, cutoff, skin=skin)
        _assert_same_pairs(nl.pairs(pos, _walk(nl)), brute_force_pairs(box.wrap(pos), box, cutoff))

    def test_matches_fresh_search_bitwise(self):
        box = Box(np.array([18.0, 25.0, 31.0]))
        pos = _random_positions(600, box, 9)
        nl = NeighborList(box, 5.0, skin=2.0)
        _assert_same_pairs(nl.pairs(pos, _walk(nl)), neighbor_pairs(pos, box, 5.0))

    def test_reused_list_matches_fresh_search(self):
        # Move atoms by less than skin/2: the cached list is reused and
        # must still produce exactly the fresh-search pairs.
        box = Box.cubic(24.0)
        pos = _random_positions(400, box, 4)
        nl = NeighborList(box, 5.0, skin=2.0)
        nl.pairs(pos, _walk(nl))
        assert nl.n_builds == 1
        rng = np.random.default_rng(5)
        moved = pos + rng.uniform(-0.4, 0.4, pos.shape)  # max |d| < 1.0 = skin/2
        _assert_same_pairs(nl.pairs(moved, _walk(nl)), neighbor_pairs(moved, box, 5.0))
        assert nl.n_builds == 1 and nl.n_reuses == 1

    def test_result_independent_of_rebuild_history(self):
        box = Box.cubic(24.0)
        pos = _random_positions(400, box, 6)
        rng = np.random.default_rng(7)
        moved = pos + rng.uniform(-0.3, 0.3, pos.shape)

        stale = NeighborList(box, 5.0, skin=2.0)
        stale.pairs(pos, _walk(stale))          # list referenced at pos
        fresh = NeighborList(box, 5.0, skin=2.0)
        _assert_same_pairs(stale.pairs(moved, _walk(stale)), fresh.pairs(moved, _walk(fresh)))
        assert stale.n_builds == 1 and fresh.n_builds == 1


class TestRebuildTrigger:
    def test_first_call_builds(self):
        box = Box.cubic(20.0)
        pos = _random_positions(100, box, 0)
        nl = NeighborList(box, 4.0, skin=2.0)
        assert nl.needs_rebuild(pos)
        nl.pairs(pos, _walk(nl))
        assert not nl.needs_rebuild(pos)

    def test_large_move_triggers(self):
        box = Box.cubic(20.0)
        pos = _random_positions(100, box, 1)
        nl = NeighborList(box, 4.0, skin=2.0)
        nl.pairs(pos, _walk(nl))
        moved = pos.copy()
        moved[17] += [1.5, 0.0, 0.0]  # > skin/2
        assert nl.needs_rebuild(moved)
        nl.pairs(moved, _walk(nl))
        assert nl.n_builds == 2

    def test_displacement_measured_through_the_boundary(self):
        # An atom drifting across the periodic boundary wraps to the far
        # side of the box; the minimum-image displacement stays tiny and
        # must not trigger a rebuild.
        box = Box.cubic(20.0)
        pos = _random_positions(100, box, 2)
        pos[3] = [0.05, 5.0, 5.0]
        nl = NeighborList(box, 4.0, skin=2.0)
        nl.pairs(pos, _walk(nl))
        moved = pos.copy()
        moved[3] = [19.95, 5.0, 5.0]  # moved 0.1 A through the boundary
        assert not nl.needs_rebuild(moved)

    def test_zero_skin_rebuilds_every_call(self):
        box = Box.cubic(20.0)
        pos = _random_positions(100, box, 3)
        nl = NeighborList(box, 4.0, skin=0.0)
        nl.pairs(pos, _walk(nl))
        nl.pairs(pos, _walk(nl))
        assert nl.n_builds == 2 and nl.n_reuses == 0

    def test_forced_build(self):
        box = Box.cubic(20.0)
        pos = _random_positions(100, box, 8)
        nl = NeighborList(box, 4.0, skin=2.0)
        nl.pairs(pos, _walk(nl))
        nl.build(pos)
        assert nl.n_builds == 2
        _assert_same_pairs(nl.pairs(pos, _walk(nl)), neighbor_pairs(pos, box, 4.0))


class TestSkinCapAndValidation:
    def test_skin_capped_to_minimum_image_limit(self):
        box = Box.cubic(12.0)
        nl = NeighborList(box, 5.0, skin=4.0)
        assert nl.effective_skin == pytest.approx(1.0)  # max_cutoff 6 - cutoff 5
        assert nl.reach <= box.max_cutoff()
        pos = _random_positions(150, box, 11)
        _assert_same_pairs(nl.pairs(pos, _walk(nl)), brute_force_pairs(box.wrap(pos), box, 5.0))

    def test_invalid_parameters_rejected(self):
        box = Box.cubic(10.0)
        with pytest.raises(ValueError):
            NeighborList(box, -1.0)
        with pytest.raises(ValueError):
            NeighborList(box, 6.0)
        with pytest.raises(ValueError):
            NeighborList(box, 3.0, skin=-0.5)

    def test_atom_count_past_the_int32_partners_rejected(self, monkeypatch):
        """Partner ids are int32: 2**31 atoms (ids up to 2**31 - 1) fit,
        one more does not — checked on the count, allocating nothing —
        and a rebuild runs the check on its own atom count."""
        assert MAX_ATOMS == 2**31 == np.iinfo(np.int32).max + 1
        check_atom_count(MAX_ATOMS)
        with pytest.raises(ValueError, match="int32"):
            check_atom_count(MAX_ATOMS + 1)
        monkeypatch.setattr(neighborlist, "MAX_ATOMS", 99)
        nl = NeighborList(Box.cubic(20.0), 4.0)
        with pytest.raises(ValueError, match="100 atoms"):
            nl.build(_random_positions(100, nl.box, 1))


class TestExclusionPrefilter:
    def test_excluded_pairs_never_returned(self):
        from repro.forcefield import Topology, build_exclusions

        box = Box.cubic(15.0)
        rng = np.random.default_rng(13)
        pos = rng.uniform(0, 15, size=(30, 3))
        top = Topology(30)
        for a in range(0, 28, 2):
            top.add_bond(a, a + 1, r0=1.0, k=100.0)
        excl = build_exclusions(top)
        nl = NeighborList(box, 5.0, skin=1.0, exclusions=excl)
        got = nl.pairs(pos, _walk(nl))
        assert not np.any(excl.is_excluded(got.i, got.j))
        # And equals the fresh search minus exclusions.
        ref = neighbor_pairs(pos, box, 5.0)
        keep = ~excl.is_excluded(ref.i, ref.j)
        np.testing.assert_array_equal(got.i, ref.i[keep])
        np.testing.assert_array_equal(got.j, ref.j[keep])
        np.testing.assert_array_equal(got.dx, ref.dx[keep])

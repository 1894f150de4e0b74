"""Unit tests for cell-list neighbor search."""

import numpy as np
import pytest

from repro.geometry import Box, brute_force_pairs, neighbor_pairs


def _pair_set(np_result):
    return {(min(a, b), max(a, b)) for a, b in zip(np_result.i, np_result.j)}


class TestBruteForce:
    def test_two_atoms(self):
        box = Box.cubic(10.0)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        pairs = brute_force_pairs(pos, box, 2.0)
        assert len(pairs) == 1
        assert pairs.r2[0] == pytest.approx(1.0)

    def test_periodic_pair(self):
        box = Box.cubic(10.0)
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        pairs = brute_force_pairs(pos, box, 2.0)
        assert len(pairs) == 1
        assert pairs.r2[0] == pytest.approx(1.0)

    def test_no_self_pairs_and_no_duplicates(self):
        box = Box.cubic(6.0)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 6, size=(40, 3))
        pairs = brute_force_pairs(pos, box, 2.9)
        assert np.all(pairs.i != pairs.j)
        assert len(_pair_set(pairs)) == len(pairs)

    def test_empty(self):
        box = Box.cubic(10.0)
        pairs = brute_force_pairs(np.empty((0, 3)), box, 2.0)
        assert len(pairs) == 0


class TestNeighborPairs:
    @pytest.mark.parametrize("n,side,cutoff", [(200, 20.0, 4.0), (500, 30.0, 6.5), (100, 12.0, 3.9)])
    def test_matches_brute_force(self, n, side, cutoff):
        box = Box.cubic(side)
        rng = np.random.default_rng(n)
        pos = rng.uniform(0, side, size=(n, 3))
        cell = neighbor_pairs(pos, box, cutoff)
        brute = brute_force_pairs(pos, box, cutoff)
        assert _pair_set(cell) == _pair_set(brute)

    def test_noncubic_box(self):
        box = Box(np.array([15.0, 24.0, 33.0]))
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 1, size=(400, 3)) * box.lengths
        cell = neighbor_pairs(pos, box, 4.5)
        brute = brute_force_pairs(pos, box, 4.5)
        assert _pair_set(cell) == _pair_set(brute)

    def test_small_box_falls_back(self):
        # Fewer than 3 cells per axis -> brute force path, still correct.
        box = Box.cubic(8.0)
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 8, size=(120, 3))
        cell = neighbor_pairs(pos, box, 3.9)
        brute = brute_force_pairs(pos, box, 3.9)
        assert _pair_set(cell) == _pair_set(brute)

    def test_exactly_three_cells_per_axis(self):
        box = Box.cubic(12.0)
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 12, size=(300, 3))
        cell = neighbor_pairs(pos, box, 4.0)
        brute = brute_force_pairs(pos, box, 4.0)
        assert _pair_set(cell) == _pair_set(brute)

    def test_cutoff_validation(self):
        box = Box.cubic(10.0)
        pos = np.zeros((2, 3))
        with pytest.raises(ValueError):
            neighbor_pairs(pos, box, -1.0)
        with pytest.raises(ValueError):
            neighbor_pairs(pos, box, 6.0)

    def test_dx_is_minimum_image_displacement(self):
        box = Box.cubic(20.0)
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 20, size=(150, 3))
        pairs = neighbor_pairs(pos, box, 4.0)
        expected = box.minimum_image(pos[pairs.i] - pos[pairs.j])
        np.testing.assert_allclose(pairs.dx, expected)
        np.testing.assert_allclose(pairs.r2, np.sum(expected**2, axis=1))

    def test_atoms_on_box_edge(self):
        box = Box.cubic(15.0)
        pos = np.array([[0.0, 0.0, 0.0], [15.0 - 1e-12, 0.0, 0.0], [7.5, 7.5, 7.5]])
        pairs = neighbor_pairs(pos, box, 3.0)
        assert (0, 1) in _pair_set(pairs)


class TestCellIndexClamp:
    def test_pathological_edge_positions(self):
        # Positions at 0, exactly L, denormal-negative, and L - ulp all
        # bin into valid cells (the index is taken modulo ncells, which
        # clamps both the exact-L edge and any -1 jitter at 0).
        box = Box.cubic(15.0)
        rng = np.random.default_rng(19)
        pos = rng.uniform(0, 15, size=(80, 3))
        pos[0] = [0.0, 0.0, 0.0]
        pos[1] = [15.0, 15.0, 15.0]
        pos[2] = [-1e-300, 7.5, 7.5]
        pos[3] = [np.nextafter(15.0, 0.0)] * 3
        cell = neighbor_pairs(pos, box, 4.0)
        brute = brute_force_pairs(box.wrap(pos), box, 4.0)
        assert _pair_set(cell) == _pair_set(brute)

    def test_canonical_pair_order(self):
        box = Box.cubic(22.0)
        rng = np.random.default_rng(29)
        pos = rng.uniform(0, 22, size=(300, 3))
        pairs = neighbor_pairs(pos, box, 5.0)
        assert np.all(pairs.i < pairs.j)
        order = np.lexsort((pairs.j, pairs.i))
        np.testing.assert_array_equal(order, np.arange(len(pairs)))

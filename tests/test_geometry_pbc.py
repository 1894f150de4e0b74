"""Unit tests for periodic-box arithmetic."""

import numpy as np
import pytest

from repro.geometry import Box


class TestBox:
    def test_cubic_constructor(self):
        box = Box.cubic(50.0)
        np.testing.assert_array_equal(box.lengths, [50.0, 50.0, 50.0])
        assert box.is_cubic
        assert box.volume == pytest.approx(125000.0)

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            Box(np.array([1.0, np.inf, 1.0]))

    def test_wrap(self):
        box = Box.cubic(10.0)
        pos = np.array([[11.0, -0.5, 5.0]])
        np.testing.assert_allclose(box.wrap(pos), [[1.0, 9.5, 5.0]])

    def test_wrap_idempotent(self):
        box = Box(np.array([7.0, 11.0, 13.0]))
        rng = np.random.default_rng(0)
        pos = rng.uniform(-30, 30, size=(100, 3))
        once = box.wrap(pos)
        np.testing.assert_allclose(box.wrap(once), once)

    def test_minimum_image_halves(self):
        box = Box.cubic(10.0)
        d = np.array([[6.0, -6.0, 4.9]])
        np.testing.assert_allclose(box.minimum_image(d), [[-4.0, 4.0, 4.9]])

    def test_minimum_image_bound(self):
        box = Box(np.array([8.0, 10.0, 12.0]))
        rng = np.random.default_rng(1)
        d = rng.uniform(-100, 100, size=(500, 3))
        m = box.minimum_image(d)
        assert np.all(np.abs(m) <= box.lengths / 2 + 1e-12)

    def test_distance_consistency(self):
        box = Box.cubic(10.0)
        xi = np.array([0.5, 0.5, 0.5])
        xj = np.array([9.5, 0.5, 0.5])
        assert box.distance(xi, xj) == pytest.approx(1.0)
        assert box.distance2(xi, xj) == pytest.approx(1.0)

    def test_fractional_roundtrip(self):
        box = Box(np.array([5.0, 6.0, 7.0]))
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 5, size=(50, 3))
        np.testing.assert_allclose(box.from_fractional(box.fractional(pos)), box.wrap(pos))

    def test_max_cutoff(self):
        box = Box(np.array([8.0, 10.0, 12.0]))
        assert box.max_cutoff() == 4.0


def _mod_wrap(box, x):
    """Box.wrap's general path: np.mod, then the L -> 0 correction."""
    w = np.mod(np.asarray(x, dtype=np.float64), box.lengths)
    return np.where(w >= box.lengths, w - box.lengths, w)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestWrapFastPath:
    """Coordinates all inside (0, L) are copied, not reduced; the copy is
    the general path's result bit for bit (DESIGN.md, wrap lemma), and
    every edge the fast path must refuse takes the general path."""

    BOX = Box(np.array([7.0, 37.04851869, 11.5]))

    @pytest.mark.parametrize(
        "edge",
        [0.0, -0.0, 5e-324, -5e-324, -1e-300, 1.0, np.nan, np.inf, -np.inf],
        ids=lambda e: repr(e),
    )
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_edge_values_match_np_mod(self, edge, axis):
        rng = np.random.default_rng(axis)
        x = rng.uniform(0.1, 0.9, (50, 3)) * self.BOX.lengths
        x[17, axis] = edge
        with np.errstate(invalid="ignore"):  # np.mod of an infinity
            got, want = self.BOX.wrap(x), _mod_wrap(self.BOX, x)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize(
        "scale", [1.0, -1.0, 2.0, -2.0, 3.5, -7.25, 1e6], ids=lambda s: f"{s}L"
    )
    def test_multiples_and_far_values_match_np_mod(self, scale):
        x = np.tile(self.BOX.lengths / 3, (4, 1))
        x[1] = scale * self.BOX.lengths
        x[2] = np.nextafter(scale * self.BOX.lengths, 0.0)
        np.testing.assert_array_equal(_bits(self.BOX.wrap(x)), _bits(_mod_wrap(self.BOX, x)))

    def test_last_double_below_each_length(self):
        x = np.tile(np.nextafter(self.BOX.lengths, 0.0), (3, 1))
        x[1] = self.BOX.lengths  # exactly L wraps to 0
        np.testing.assert_array_equal(_bits(self.BOX.wrap(x)), _bits(_mod_wrap(self.BOX, x)))

    def test_inside_is_a_copy_of_the_same_doubles(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (200, 3)) * self.BOX.lengths
        x[0] = np.nextafter(self.BOX.lengths, 0.0)
        x[1] = 5e-324
        got = self.BOX.wrap(x)
        assert got is not x and not np.shares_memory(got, x)
        np.testing.assert_array_equal(_bits(got), _bits(x))
        np.testing.assert_array_equal(_bits(got), _bits(_mod_wrap(self.BOX, x)))

    def test_shapes_other_than_rows(self):
        for x in (np.array([1.0, 2.0, 3.0]), np.ones((2, 4, 3)), np.zeros((0, 3))):
            np.testing.assert_array_equal(self.BOX.wrap(x), _mod_wrap(self.BOX, x))

"""Unit tests for order-invariant fixed-point accumulation."""

import numpy as np

from repro.fixedpoint import FixedAccumulator, FixedFormat, wrapping_sum


class TestWrappingSum:
    def test_simple_sum(self):
        fmt = FixedFormat(16)
        codes = fmt.encode(np.array([0.1, 0.2, -0.05]))
        total = wrapping_sum(codes, fmt)
        assert abs(fmt.decode(total) - 0.25) < 3 * fmt.resolution

    def test_sum_correct_despite_intermediate_wrap(self):
        fmt = FixedFormat(4)
        codes = fmt.encode(np.array([3 / 8, 7 / 8, -5 / 8]))
        assert fmt.decode(wrapping_sum(codes, fmt)) == 5 / 8

    def test_axis_sum(self):
        fmt = FixedFormat(20)
        codes = fmt.encode(np.full((5, 3), 0.01))
        out = wrapping_sum(codes, fmt, axis=0)
        assert out.shape == (3,)
        np.testing.assert_allclose(fmt.decode(out), 0.05, atol=5 * fmt.resolution)


class TestFixedAccumulator:
    def test_deposit_and_total(self):
        fmt = FixedFormat(24)
        acc = FixedAccumulator((4, 3), fmt)
        idx = np.array([0, 1, 1, 3])
        contrib = fmt.encode(np.full((4, 3), 0.001))
        acc.deposit(idx, contrib)
        vals = fmt.decode(acc.total())
        np.testing.assert_allclose(vals[1], 0.002, atol=4 * fmt.resolution)
        np.testing.assert_allclose(vals[2], 0.0)

    def test_order_invariance_of_scattered_deposits(self):
        fmt = FixedFormat(24)
        rng = np.random.default_rng(7)
        n = 50
        idx = rng.integers(0, 8, size=n)
        contrib = fmt.encode(rng.uniform(-0.01, 0.01, size=(n, 3)))

        acc1 = FixedAccumulator((8, 3), fmt)
        acc1.deposit(idx, contrib)

        perm = rng.permutation(n)
        acc2 = FixedAccumulator((8, 3), fmt)
        acc2.deposit(idx[perm], contrib[perm])

        np.testing.assert_array_equal(acc1.total(), acc2.total())

    def test_merge_equals_single_accumulator(self):
        fmt = FixedFormat(24)
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 6, size=40)
        contrib = fmt.encode(rng.uniform(-0.01, 0.01, size=(40, 3)))

        whole = FixedAccumulator((6, 3), fmt)
        whole.deposit(idx, contrib)

        a = FixedAccumulator((6, 3), fmt)
        b = FixedAccumulator((6, 3), fmt)
        a.deposit(idx[:17], contrib[:17])
        b.deposit(idx[17:], contrib[17:])
        # Partial sums combine by a plain wrapping integer add.
        combined = fmt.wrap(a.raw() + b.raw())

        np.testing.assert_array_equal(whole.total(), combined)

    def test_zero_resets(self):
        fmt = FixedFormat(16)
        acc = FixedAccumulator((2,), fmt)
        acc.deposit_dense(np.array([5, 7], dtype=np.int64))
        acc.zero()
        np.testing.assert_array_equal(acc.total(), 0)

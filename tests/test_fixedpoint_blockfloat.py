"""Unit tests for block-floating-point coefficient encoding."""

import math

import numpy as np
import pytest

from repro.fixedpoint import BlockFloatCodec


def roundtrip(codec, coeffs):
    """Encode then decode one block as a one-row batch."""
    return codec.decode_rows(*codec.encode_rows(np.asarray(coeffs)[None]))[0]


class TestBlockFloatCodec:
    def test_roundtrip_relative_error_of_largest_coefficient(self):
        codec = BlockFloatCodec(mantissa_bits=22)
        coeffs = np.array([1.5, -0.3, 0.0021, 4.0e-5])
        out = roundtrip(codec, coeffs)
        # Largest coefficient carries nearly full mantissa precision.
        assert abs(out[0] - coeffs[0]) / abs(coeffs[0]) < 2.0**-20

    def test_shared_exponent_quantizes_small_coeffs_coarsely(self):
        codec = BlockFloatCodec(mantissa_bits=10)
        coeffs = np.array([1.0, 1e-9])
        out = roundtrip(codec, coeffs)
        # The tiny coefficient falls below the shared step and flushes to 0.
        assert out[1] == 0.0

    def test_zero_block(self):
        codec = BlockFloatCodec(mantissa_bits=12)
        out = roundtrip(codec, np.zeros(4))
        np.testing.assert_array_equal(out, 0.0)

    def test_power_of_two_exact(self):
        codec = BlockFloatCodec(mantissa_bits=16)
        coeffs = np.array([0.5, 0.25, -0.125])
        np.testing.assert_array_equal(roundtrip(codec, coeffs), coeffs)

    def test_boundary_magnitude_does_not_saturate_badly(self):
        codec = BlockFloatCodec(mantissa_bits=16)
        coeffs = np.array([1.0, -1.0])
        out = roundtrip(codec, coeffs)
        np.testing.assert_allclose(out, coeffs, rtol=2.0**-14)

    def test_mantissa_width_validation(self):
        with pytest.raises(ValueError):
            BlockFloatCodec(mantissa_bits=1)

    def test_more_bits_never_worse(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=6) * 10.0**rng.integers(-3, 3, size=6)
        errs = []
        for bits in (8, 12, 16, 20, 24):
            out = roundtrip(BlockFloatCodec(mantissa_bits=bits), coeffs)
            errs.append(np.max(np.abs(out - coeffs)))
        assert all(e2 <= e1 + 1e-30 for e1, e2 in zip(errs, errs[1:]))

    def test_negative_only_block(self):
        codec = BlockFloatCodec(mantissa_bits=14)
        coeffs = np.array([-3.0, -0.7])
        out = roundtrip(codec, coeffs)
        # Block-float error is absolute, bounded by half the shared step
        # (here exponent=2, step=2**(2+1-14)).
        np.testing.assert_allclose(out, coeffs, atol=0.5 * 2.0**-11)


def _loop_encode(codec, coeffs):
    """The one-block reference, scalar arithmetic throughout."""
    lo, hi = codec.exponent_range
    amax = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if amax == 0.0 or not np.isfinite(amax):
        exponent = lo
    else:
        exponent = min(max(int(math.ceil(math.log2(amax))), lo), hi)
    half = 1 << (codec.mantissa_bits - 1)
    mantissas = np.rint(coeffs / math.ldexp(1.0, exponent + 1 - codec.mantissa_bits)).astype(np.int64)
    if mantissas.size and int(np.max(mantissas)) > half - 1:
        exponent = min(exponent + 1, hi)
        mantissas = np.rint(coeffs / math.ldexp(1.0, exponent + 1 - codec.mantissa_bits)).astype(np.int64)
    return np.clip(mantissas, -half, half - 1), exponent


class TestEncodeRows:
    """``encode_rows`` is the one-block encoding on every row at once."""

    @staticmethod
    def assert_rows_match_encode(codec, rows):
        mantissas, exponents = codec.encode_rows(rows)
        assert mantissas.dtype == np.int64 and exponents.dtype == np.int64
        decoded = codec.decode_rows(mantissas, exponents)
        for row, m, e, d in zip(rows, mantissas, exponents, decoded):
            ref_m, ref_e = _loop_encode(codec, row)
            np.testing.assert_array_equal(m, ref_m)
            assert e == ref_e
            step = math.ldexp(1.0, int(ref_e) + 1 - codec.mantissa_bits)
            assert d.tobytes() == (ref_m.astype(np.float64) * step).tobytes()
        return mantissas, exponents

    def test_mixed_rows(self):
        codec = BlockFloatCodec(mantissa_bits=22)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-6, 6, size=(40, 1))
        self.assert_rows_match_encode(codec, rows)

    def test_zero_row(self):
        codec = BlockFloatCodec(mantissa_bits=12, exponent_range=(-20, 20))
        rows = np.array([[0.0, 0.0, 0.0], [0.5, -0.25, 0.0]])
        mantissas, exponents = self.assert_rows_match_encode(codec, rows)
        np.testing.assert_array_equal(mantissas[0], 0)
        assert exponents[0] == -20

    def test_plus_one_boundary_bumps_the_exponent(self):
        # 1.0 - 2**-20 rounds to +half at exponent 0 with 16 bits; the
        # row is re-encoded one exponent up instead of saturating.
        codec = BlockFloatCodec(mantissa_bits=16)
        rows = np.array([[1.0 - 2.0**-20, 0.25], [0.75, 0.25], [1.0, -1.0]])
        mantissas, exponents = self.assert_rows_match_encode(codec, rows)
        # +1.0 itself is the boundary too; -1.0 alone would not be.
        assert exponents.tolist() == [1, 0, 1]
        assert mantissas[0, 0] == 1 << 14
        assert mantissas[2].tolist() == [1 << 14, -(1 << 14)]

    def test_exponent_clamped_at_both_ends(self):
        codec = BlockFloatCodec(mantissa_bits=10, exponent_range=(-8, 4))
        rows = np.array([[1e-6, 0.0], [1e3, -2.0], [3.0, 1.0]])
        mantissas, exponents = self.assert_rows_match_encode(codec, rows)
        assert exponents.tolist() == [-8, 4, 2]
        # Too-large coefficients saturate at the clamped exponent.
        assert mantissas[1, 0] == (1 << 9) - 1

    def test_bump_stops_at_the_top_of_the_exponent_range(self):
        codec = BlockFloatCodec(mantissa_bits=8, exponent_range=(-8, 0))
        rows = np.array([[1.0 - 2.0**-12], [0.375]])
        mantissas, exponents = self.assert_rows_match_encode(codec, rows)
        assert exponents.tolist() == [0, -1]
        assert mantissas[0, 0] == (1 << 7) - 1

    def test_negative_only_row(self):
        codec = BlockFloatCodec(mantissa_bits=14)
        rows = np.array([[-3.0, -0.7], [-1.0, -1.0], [2.0, 1.0]])
        mantissas, exponents = self.assert_rows_match_encode(codec, rows)
        # -1.0 is representable at exponent 0 (two's complement); +2.0 bumps.
        assert exponents.tolist() == [2, 0, 2]
        assert mantissas[1].tolist() == [-(1 << 13), -(1 << 13)]

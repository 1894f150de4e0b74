"""Block-floating-point coefficient encoding (paper Section 4).

Each entry of a PPIP function table stores the four coefficients of a
cubic polynomial plus "a single exponent common to all four
coefficients, as in block-floating-point schemes".  This module encodes
a coefficient vector as signed fixed-point mantissas sharing one power-
of-two exponent, which is what lets the 19–22-bit datapaths of Figure 4
capture functions with large dynamic range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.format import round_nearest_even

__all__ = ["BlockFloat", "BlockFloatCodec"]


@dataclass(frozen=True)
class BlockFloat:
    """An encoded coefficient block: integer mantissas and shared exponent.

    The represented values are ``mantissas * 2**(exponent + 1 - mantissa_bits)``.
    """

    mantissas: np.ndarray  # int64, shape (k,)
    exponent: int
    mantissa_bits: int

    def decode(self) -> np.ndarray:
        """Reconstruct the coefficient values as float64."""
        step = math.ldexp(1.0, self.exponent + 1 - self.mantissa_bits)
        return self.mantissas.astype(np.float64) * step


class BlockFloatCodec:
    """Encoder for coefficient blocks with ``mantissa_bits``-bit mantissas.

    Parameters
    ----------
    mantissa_bits:
        Signed mantissa width; mantissas lie in
        ``[-2**(mantissa_bits-1), 2**(mantissa_bits-1))``.
    exponent_range:
        Inclusive (lo, hi) clamp on the shared exponent, mimicking a
        finite hardware exponent field.
    """

    def __init__(self, mantissa_bits: int, exponent_range: tuple[int, int] = (-64, 64)):
        if mantissa_bits < 2:
            raise ValueError("mantissa_bits must be >= 2")
        self.mantissa_bits = mantissa_bits
        self.exponent_range = exponent_range

    def encode(self, coeffs: np.ndarray) -> BlockFloat:
        """Encode a small vector of coefficients with one shared exponent.

        The one-row case of :meth:`encode_rows`.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        mantissas, exponents = self.encode_rows(coeffs.reshape(1, -1))
        return BlockFloat(
            mantissas=mantissas.reshape(coeffs.shape),
            exponent=int(exponents[0]),
            mantissa_bits=self.mantissa_bits,
        )

    def encode_rows(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encode every row of ``coeffs`` as one block.

        A row's exponent is the smallest power of two such that every
        coefficient's mantissa fits; smaller coefficients simply lose
        low-order bits, exactly as in the hardware scheme.  Returns the
        ``(n, k)`` int64 mantissas and the ``(n,)`` int64 exponents.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        lo, hi = self.exponent_range
        amax = np.max(np.abs(coeffs), axis=1, initial=0.0)
        # Smallest e with amax * 2**(-e) <= 1 (then the mantissa fits,
        # modulo the asymmetry of two's complement handled below).
        exponents = np.array(
            [
                lo if v == 0.0 or not math.isfinite(v) else min(max(math.ceil(math.log2(v)), lo), hi)
                for v in amax.tolist()
            ],
            dtype=np.int64,
        )
        half = 1 << (self.mantissa_bits - 1)
        mantissas = self._mantissas(coeffs, exponents)
        # The +1.0 boundary case rounds to +half which is unrepresentable;
        # bump the exponent rather than saturate so the error stays small.
        bump = np.max(mantissas, axis=1, initial=-half) > half - 1
        if bump.any():
            exponents[bump] = np.minimum(exponents[bump] + 1, hi)
            mantissas[bump] = self._mantissas(coeffs[bump], exponents[bump])
        return np.clip(mantissas, -half, half - 1), exponents

    def decode_rows(self, mantissas: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        """Coefficient values of :meth:`encode_rows` output, as float64."""
        return mantissas.astype(np.float64) * self._steps(exponents)[:, None]

    def _steps(self, exponents: np.ndarray) -> np.ndarray:
        return np.ldexp(1.0, exponents + 1 - self.mantissa_bits)

    def _mantissas(self, coeffs: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        return round_nearest_even(coeffs / self._steps(exponents)[:, None]).astype(np.int64)

    def roundtrip(self, coeffs: np.ndarray) -> np.ndarray:
        """Encode then decode (the quantized coefficient values)."""
        return self.encode(coeffs).decode()

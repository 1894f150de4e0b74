"""Two's-complement fixed-point formats (paper Section 4).

A *B*-bit signed fixed-point number represents the ``2**B`` evenly
spaced values in ``[-1, 1)`` with step ``2**(1-B)``.  We store such
numbers in ``int64`` ndarrays and reproduce the two properties the
paper's hardware relies on:

* **Associativity** — integer addition is exact, so the order of
  summation never changes the result (unlike floating point).
* **Natural wrap** — addition wraps modulo ``2**B``; a collection of
  values sums correctly as long as the *final* sum is representable,
  regardless of intermediate wrap (the paper's footnote 2 example is
  exercised in the tests).

Because ``2**B`` divides ``2**64``, letting NumPy's native ``int64``
arithmetic wrap and then reducing modulo ``2**B`` at the end is exactly
equivalent to wrapping after every add, so accumulation is both exact
in the modular sense and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["FixedFormat", "round_nearest_even"]


def round_nearest_even(x: np.ndarray | float) -> np.ndarray:
    """Round to the nearest integer, ties to even (the PPIP rounding rule).

    This is odd-symmetric (``round(-x) == -round(x)``), which is what
    makes the fixed-point integrator exactly time reversible.
    """
    return np.rint(x)


@dataclass(frozen=True)
class FixedFormat:
    """A signed fixed-point format with ``bits`` total bits.

    Representable values are ``k * 2**(1-bits)`` for integer
    ``k`` in ``[-2**(bits-1), 2**(bits-1))``.
    """

    bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 62:
            raise ValueError(f"bits must be in [2, 62], got {self.bits}")

    @cached_property
    def scale(self) -> float:
        """Multiplier from real value in [-1,1) to integer code."""
        return float(1 << (self.bits - 1))

    @cached_property
    def resolution(self) -> float:
        """Smallest representable increment, ``2**(1-bits)``."""
        return 1.0 / self.scale

    @property
    def min_code(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1

    # -- conversions ---------------------------------------------------

    def encode(self, x: np.ndarray | float) -> np.ndarray:
        """Quantize real values to integer codes (round-to-nearest-even).

        Values outside [-1, 1) wrap, exactly as the hardware's
        two's-complement datapath would.
        """
        codes = round_nearest_even(np.asarray(x, dtype=np.float64) * self.scale)
        return self.wrap(codes.astype(np.int64))

    def encode_clip(self, x: np.ndarray | float) -> np.ndarray:
        """Quantize with saturation instead of wrap (for table lookups)."""
        codes = round_nearest_even(np.asarray(x, dtype=np.float64) * self.scale)
        return np.clip(codes, self.min_code, self.max_code).astype(np.int64)

    def decode(self, codes: np.ndarray | int) -> np.ndarray:
        """Integer codes back to float64 values."""
        return np.asarray(codes, dtype=np.float64) * self.resolution

    # -- modular arithmetic --------------------------------------------

    def wrap(self, codes: np.ndarray | int) -> np.ndarray:
        """Reduce int64 values into this format's two's-complement range.

        ``wrap(a + b)`` equals the hardware result of adding ``a`` and
        ``b`` in *bits*-wide two's complement, for any int64 ``a``, ``b``
        (including values that already wrapped mod ``2**64``).
        """
        codes = np.asarray(codes, dtype=np.int64)
        half = np.int64(1) << np.int64(self.bits - 1)
        mask = (np.int64(1) << np.int64(self.bits)) - np.int64(1)
        # ((v + half) mod 2**bits) - half, computed with masking so it is
        # correct even when v + half wraps int64.
        return (((codes + half) & mask) - half).astype(np.int64)

    def add(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """Wrapping addition in this format."""
        with np.errstate(over="ignore"):
            s = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        return self.wrap(s)

    def representable(self, codes: np.ndarray | int) -> np.ndarray:
        """Elementwise check that codes lie in the representable range."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes >= self.min_code) & (codes <= self.max_code)

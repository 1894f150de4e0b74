"""Fixed-point representation of physical quantities.

Anton represents every physical quantity (position, velocity, force,
charge, energy, virial) as a fixed-point fraction of a statically known
bound — "all of the arithmetic in an MD simulation involves quantities
that are bounded by physical considerations" (Section 4).  A
:class:`ScaledFixed` pairs a :class:`~repro.fixedpoint.format.FixedFormat`
with such a bound so that quantization and reconstruction are one-liners
at every point force contributions are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.format import FixedFormat, round_nearest_even

__all__ = ["ScaledFixed"]


@dataclass(frozen=True)
class ScaledFixed:
    """Fixed-point codec for a physical quantity bounded by ``limit``.

    A quantity ``q`` with ``|q| <= limit`` maps to the fixed-point
    fraction ``q / limit`` in ``[-1, 1)``.

    Parameters
    ----------
    fmt:
        Bit-level format of the stored codes.
    limit:
        Physical bound; the representable range is ``[-limit, limit)``
        with resolution ``limit * 2**(1 - fmt.bits)``.
    """

    fmt: FixedFormat
    limit: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.limit) or self.limit <= 0:
            raise ValueError(f"limit must be positive and finite, got {self.limit}")

    @property
    def resolution(self) -> float:
        """Physical size of one integer code step."""
        return self.limit * self.fmt.resolution

    def quantize(self, q: np.ndarray | float) -> np.ndarray:
        """Physical values -> integer codes (round-to-nearest-even, wrap)."""
        x = np.asarray(q, dtype=np.float64) / self.limit
        return self.fmt.encode(x)

    def reconstruct(self, codes: np.ndarray | int) -> np.ndarray:
        """Integer codes -> physical float64 values."""
        return self.fmt.decode(codes) * self.limit

    def quantize_round_only(self, q: np.ndarray | float) -> np.ndarray:
        """Quantize without wrapping (codes may exceed the format range).

        Used for *accumulators*: individual contributions are rounded to
        the accumulator's resolution but summed in full int64 so wrap
        semantics are applied once, by the caller, on the final sum.
        Values beyond the int64 range saturate (rather than producing an
        undefined cast) — a configuration that extreme is unphysical and
        surfaces immediately in the energy diagnostics.
        """
        x = np.asarray(q, dtype=np.float64) / self.limit * self.fmt.scale
        cap = 2.0**62
        # np.clip's bits through two ufuncs, without its Python wrappers.
        return round_nearest_even(np.minimum(np.maximum(x, -cap), cap)).astype(np.int64)

    def wrap(self, codes: np.ndarray | int) -> np.ndarray:
        """Apply the format's two's-complement wrap to raw int64 codes."""
        return self.fmt.wrap(codes)

    def in_range(self, q: np.ndarray | float) -> np.ndarray:
        """Elementwise check that physical values fit without wrapping."""
        q = np.asarray(q, dtype=np.float64)
        return (q >= -self.limit) & (q < self.limit)

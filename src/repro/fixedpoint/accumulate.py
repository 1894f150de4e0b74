"""Order-invariant fixed-point accumulation.

The heart of Anton's determinism and parallel invariance (Section 4):
force contributions are quantized once, then summed with exact integer
arithmetic, so *any* distribution of the terms over nodes — and any
arrival order of messages — produces the same bits.

These helpers are used by every force routine: per-interaction
contributions enter as int64 codes, land in an int64 accumulator via
``np.add.at`` (unordered, which is safe precisely because integer
addition is associative and commutative), and the final sums are wrapped
into the accumulator's fixed-point format.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.format import FixedFormat

__all__ = ["FixedAccumulator", "scatter_add_int64", "wrapping_sum"]

#: Contributions per scatter slice.  Each 32-bit half-word is summed in
#: float64 via ``np.bincount``; partial sums stay below
#: ``2**21 * 2**32 = 2**53`` per slice, so every float64 partial sum is
#: exact and the recombined int64 total matches ``np.add.at`` bit for
#: bit (including two's-complement wrap, which both paths take mod
#: ``2**64``).
_SCATTER_SLICE = 1 << 21


def scatter_add_int64(
    acc: np.ndarray, keys: np.ndarray, codes: np.ndarray
) -> None:
    """Scatter-add int64 ``codes`` into flat ``acc`` at ``keys``.

    Bitwise equivalent to ``np.add.at(acc, keys, codes)`` but built on
    ``np.bincount``, which runs a tight contiguous counting loop instead
    of ``add.at``'s generalized buffered inner loop — several times
    faster for the many-duplicate scatters of mesh charge spreading.

    Each int64 code is split into its two 32-bit half-words; each half
    is bincount-summed in float64 over slices small enough that the
    partial sums are exact integers, then the halves are recombined with
    wrapping int64 arithmetic.  Integer sums commute, so (exactly like
    ``np.add.at``) the result is independent of the order and partition
    of the contributions.
    """
    keys = keys.ravel()
    codes = codes.ravel()
    n = acc.shape[0]
    lo_mask = np.int64(0xFFFFFFFF)
    with np.errstate(over="ignore"):
        for s in range(0, len(codes), _SCATTER_SLICE):
            c = codes[s : s + _SCATTER_SLICE]
            k = keys[s : s + _SCATTER_SLICE]
            lo = np.bincount(
                k, weights=(c & lo_mask).astype(np.float64), minlength=n
            )
            hi = np.bincount(
                k, weights=(c >> np.int64(32)).astype(np.float64), minlength=n
            )
            acc += (hi.astype(np.int64) << np.int64(32)) + lo.astype(np.int64)


def wrapping_sum(codes: np.ndarray, fmt: FixedFormat, axis=None) -> np.ndarray:
    """Sum int64 codes with two's-complement wrap in ``fmt``.

    Intermediate sums may wrap (mod ``2**64`` natively, which is
    congruent mod ``2**fmt.bits``); the result is correct whenever the
    true sum is representable, per the paper's footnote 2.
    """
    with np.errstate(over="ignore"):
        total = np.sum(np.asarray(codes, dtype=np.int64), axis=axis)
    return fmt.wrap(total)


class FixedAccumulator:
    """An int64 accumulator array with fixed-point wrap-on-read semantics.

    Parameters
    ----------
    shape:
        Shape of the accumulator (e.g. ``(n_atoms, 3)`` for forces).
    fmt:
        Fixed-point format applied when the totals are read out.
    """

    def __init__(self, shape, fmt: FixedFormat):
        self.fmt = fmt
        self._acc = np.zeros(shape, dtype=np.int64)

    @property
    def shape(self):
        return self._acc.shape

    def zero(self) -> None:
        """Reset all accumulated values."""
        self._acc[...] = 0

    def deposit(self, index, codes: np.ndarray) -> None:
        """Scatter-add quantized contributions at ``index`` (unordered).

        ``index`` follows ``np.add.at`` semantics; duplicate indices
        accumulate, and because the arithmetic is integer the result is
        independent of the order in which duplicates are applied.
        """
        with np.errstate(over="ignore"):
            np.add.at(self._acc, index, np.asarray(codes, dtype=np.int64))

    def deposit_dense(self, codes: np.ndarray) -> None:
        """Add a full-shape array of contributions."""
        with np.errstate(over="ignore"):
            self._acc += np.asarray(codes, dtype=np.int64)

    def raw(self) -> np.ndarray:
        """The raw (unwrapped) int64 totals. Mutating the result mutates
        the accumulator."""
        return self._acc

    def total(self) -> np.ndarray:
        """Final totals wrapped into the fixed-point format."""
        return self.fmt.wrap(self._acc)

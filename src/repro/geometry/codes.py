"""Positions as fixed-point fractions of the box, and the geometry read from them.

As on Anton (Section 4), a coordinate ``x`` is stored as the code ``c =
rint(x / L · 2**40) mod 2**40``, and the force path reads every cell and
displacement from the codes (DESIGN.md, "Integer geometry").  The width
is the constant :data:`POSITION_BITS`, at which decoding and re-encoding
give a code back (the round-trip lemma): a force evaluation takes decoded
positions and encodes them once, at entry.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pbc import Box

__all__ = ["POSITION_BITS", "PositionCodec", "cells", "cell_fractions"]

POSITION_BITS = 40

_MASK = (np.int64(1) << np.int64(POSITION_BITS)) - np.int64(1)
_HALF = np.int64(1) << np.int64(POSITION_BITS - 1)
_SHIFT = np.int64(POSITION_BITS)
_UNIT = 2.0**-POSITION_BITS  # one code, as a fraction of the box


def cells(codes: np.ndarray, m) -> np.ndarray:
    """The cell ``(c·m) >> 40``, in ``[0, m)``, of each code on ``m`` cells
    per axis (``m`` broadcasts against the last axis): the rebuild's bins,
    the mesh's base cells and the machine's home boxes, exact in int64 for
    ``m < 2**23``."""
    return np.right_shift(np.multiply(codes, np.asarray(m, dtype=np.int64)), _SHIFT)


def cell_fractions(codes: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cells` and each code's offset in ``[0, 1)`` cells within its
    cell: the low 40 bits of ``c·m`` times ``2**-40``, exact."""
    t = np.multiply(codes, np.asarray(m, dtype=np.int64))
    return np.right_shift(t, _SHIFT), np.multiply(np.bitwise_and(t, _MASK), _UNIT)


class PositionCodec:
    """Positions as unsigned modular fractions of the periodic box.

    The torus wrap of the integer code is exactly the periodic boundary
    condition, so neither drift nor encoding needs a wrapping pass: the
    reduction is a mask of the low 40 bits, which equals ``np.mod`` on
    every int64 (DESIGN.md, power-of-two modulus lemma).  Decoded
    positions lie in ``[0, L)``.
    """

    bits = POSITION_BITS
    modulus = _MASK + np.int64(1)
    mask = _MASK

    def __init__(self, box: Box):
        self.box = box
        self.scale = float(self.modulus) / box.lengths  # codes per A, per axis
        #: A per code, ``L·2**-40``: an exact scaling of ``L``.
        self.step = box.lengths * _UNIT

    @property
    def resolution(self) -> np.ndarray:
        """Physical size of one code step per axis (A)."""
        return 1.0 / self.scale

    def encode(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The codes of finite ``positions``, into the int64 ``out`` if given."""
        x = np.multiply(positions, self.scale)
        np.rint(x, out=x)
        out = np.empty(x.shape, dtype=np.int64) if out is None else out
        np.copyto(out, x, casting="unsafe")
        return np.bitwise_and(out, self.mask, out=out)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.divide(codes, self.scale)

    def advance(self, codes: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Torus-arithmetic position update (int64 adds wrap silently)."""
        out = np.add(codes, delta)
        return np.bitwise_and(out, self.mask, out=out)

    def displacement(self, ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
        """Minimum-image ``x_i − x_j`` (A) of codes ``ci``, ``cj``: their
        difference sign-extended from 40 bits, ``((d + 2**39) & (2**40 − 1))
        − 2**39`` (in ``[−2**39, 2**39)``: the half-box tie is ``−2**39``),
        times the exact :attr:`step`, rounded once."""
        d = np.subtract(ci, cj)
        np.add(d, _HALF, out=d)
        np.bitwise_and(d, _MASK, out=d)
        np.subtract(d, _HALF, out=d)
        return np.multiply(d, self.step)

"""Orthorhombic periodic boxes and minimum-image arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """An orthorhombic periodic simulation box.

    Positions live in [0, L) per axis; displacements use the
    minimum-image convention.  All lengths are in angstroms.
    """

    lengths: np.ndarray = field()

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=np.float64).reshape(3)
        if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
            raise ValueError(f"box lengths must be positive and finite, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def cubic(cls, side: float) -> "Box":
        """A cubic box with the given side length."""
        return cls(np.full(3, float(side)))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def is_cubic(self) -> bool:
        return bool(np.all(self.lengths == self.lengths[0]))

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the primary cell [0, L) per axis (a new array).

        ``np.mod`` can return exactly L for denormal-negative inputs;
        the correction keeps the half-open interval invariant airtight
        (cell indexing depends on it).  Coordinates that all lie in the
        open cell (0, L) — every engine's decoded positions, nearly
        always — are copied instead: there ``np.mod`` is the identity
        (DESIGN.md, wrap lemma), and two reductions decide it.  A NaN,
        a zero of either sign or anything outside takes the general
        path.
        """
        x = np.asarray(positions, dtype=np.float64)
        if x.ndim and x.size and x.shape[-1] == 3 and x.min() > 0.0:
            if x.max() < self.lengths.min() or bool(np.all(x < self.lengths)):
                return x.copy()
        w = np.mod(x, self.lengths)
        return np.where(w >= self.lengths, w - self.lengths, w)

    def minimum_image(self, d: np.ndarray) -> np.ndarray:
        """Minimum-image displacement vectors (last axis = xyz)."""
        d = np.asarray(d, dtype=np.float64)
        return d - self.lengths * np.round(d / self.lengths)

    def displacement(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        """Minimum-image displacement xi - xj (broadcasting)."""
        return self.minimum_image(np.asarray(xi, dtype=np.float64) - np.asarray(xj, dtype=np.float64))

    def distance2(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        """Squared minimum-image distances."""
        d = self.displacement(xi, xj)
        return np.sum(d * d, axis=-1)

    def distance(self, xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
        return np.sqrt(self.distance2(xi, xj))

    def max_cutoff(self) -> float:
        """Largest cutoff for which minimum image is unambiguous (L/2)."""
        return float(np.min(self.lengths)) / 2.0

    def fractional(self, positions: np.ndarray) -> np.ndarray:
        """Positions as box fractions in [0, 1)."""
        return self.wrap(positions) / self.lengths

    def from_fractional(self, frac: np.ndarray) -> np.ndarray:
        """Box fractions back to cartesian angstroms."""
        return np.asarray(frac, dtype=np.float64) * self.lengths

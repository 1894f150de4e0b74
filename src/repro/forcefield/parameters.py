"""Nonbonded (Lennard-Jones) parameter sets with combination rules."""

from __future__ import annotations

import numpy as np

__all__ = ["LJTable"]


class LJTable:
    """Per-type LJ parameters with precombined pair tables.

    Uses Lorentz–Berthelot combination: arithmetic-mean sigma,
    geometric-mean epsilon (the rule of the AMBER-family force fields
    the paper's simulations use).
    """

    def __init__(self, sigmas, epsilons):
        self.sigmas = np.asarray(sigmas, dtype=np.float64)
        self.epsilons = np.asarray(epsilons, dtype=np.float64)
        if self.sigmas.shape != self.epsilons.shape or self.sigmas.ndim != 1:
            raise ValueError("sigmas and epsilons must be 1-D and equal length")
        if np.any(self.sigmas < 0) or np.any(self.epsilons < 0):
            raise ValueError("LJ parameters must be non-negative")
        self.sigma_ij = 0.5 * (self.sigmas[:, None] + self.sigmas[None, :])
        self.eps_ij = np.sqrt(self.epsilons[:, None] * self.epsilons[None, :])
        # The (A, B) = (4 eps sigma^12, 4 eps sigma^6) type-pair matrices.
        # Every operation is elementwise, so a gather from them is
        # bitwise the same arithmetic done per pair.
        s6 = self.sigma_ij**6
        self.a_ij = 4.0 * self.eps_ij * s6 * s6
        self.b_ij = 4.0 * self.eps_ij * s6

    def pair_coefficients(self, type_i: np.ndarray, type_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (A, B) = (4 eps sigma^12, 4 eps sigma^6) coefficients.

        These are the per-pair multipliers that Anton feeds its
        dispersion tables: ``E = A/r^12 - B/r^6``.
        """
        return self.a_ij[type_i, type_j], self.b_ij[type_i, type_j]

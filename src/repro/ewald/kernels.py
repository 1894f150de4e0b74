"""Analytic Ewald pair kernels (real-space screened Coulomb).

The Ewald decomposition splits 1/r into a short-range part
``erfc(r / (sqrt(2) sigma)) / r`` (computed pairwise, within the
cutoff) and a smooth long-range part ``erf(r / (sqrt(2) sigma)) / r``
(computed on the mesh).  ``sigma`` is the Gaussian width of the
screening charge.

All kernels are expressed as functions of r² (the PPIP indexing
variable) and return *prefactors* ``g`` such that the force vector is
``g * dx`` — i.e. they absorb the 1/r of the unit vector.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfc

from repro.util import COULOMB

__all__ = [
    "real_space_energy_kernel",
    "real_space_force_kernel",
    "kspace_pair_energy_kernel",
    "kspace_pair_force_kernel",
    "plain_coulomb_energy_kernel",
    "plain_coulomb_force_kernel",
    "self_energy",
    "choose_sigma",
    "EWALD_TOLERANCE",
]

#: The real-space kernel's value at the cutoff that fixes the Ewald
#: width (:func:`choose_sigma`): every engine runs at it, and a
#: fingerprint hashes it as the retired ``MDParams.ewald_tolerance``.
EWALD_TOLERANCE = 1e-5

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def real_space_energy_kernel(r2: np.ndarray, sigma: float) -> np.ndarray:
    """``ke * erfc(r / (sqrt(2) sigma)) / r`` per unit charge product."""
    r = np.sqrt(r2)
    return COULOMB * erfc(r / (math.sqrt(2.0) * sigma)) / r


def real_space_force_kernel(r2: np.ndarray, sigma: float) -> np.ndarray:
    """Force prefactor of the screened Coulomb term.

    ``F = qq * g(r2) * dx`` with
    ``g = ke (erfc(r/(sqrt2 sigma))/r^3 + sqrt(2/pi) exp(-r^2/2sigma^2)/(sigma r^2))``.
    """
    r = np.sqrt(r2)
    x = r / (math.sqrt(2.0) * sigma)
    return COULOMB * (erfc(x) / (r2 * r) + _SQRT_2_OVER_PI * np.exp(-r2 / (2.0 * sigma**2)) / (sigma * r2))


def kspace_pair_energy_kernel(r2: np.ndarray, sigma: float) -> np.ndarray:
    """``ke * erf(r / (sqrt(2) sigma)) / r`` — the smooth part one pair
    contributes through the mesh; subtracted for excluded pairs."""
    r = np.sqrt(r2)
    return COULOMB * erf(r / (math.sqrt(2.0) * sigma)) / r


def kspace_pair_force_kernel(r2: np.ndarray, sigma: float) -> np.ndarray:
    """Force prefactor of the smooth (erf) part, for correction forces."""
    r = np.sqrt(r2)
    return COULOMB * (
        erf(r / (math.sqrt(2.0) * sigma)) / (r2 * r)
        - _SQRT_2_OVER_PI * np.exp(-r2 / (2.0 * sigma**2)) / (sigma * r2)
    )


def plain_coulomb_energy_kernel(r2: np.ndarray) -> np.ndarray:
    """Unscreened ``ke / r`` (used for explicit 1-4 interactions)."""
    return COULOMB / np.sqrt(r2)


def plain_coulomb_force_kernel(r2: np.ndarray) -> np.ndarray:
    """Force prefactor of unscreened Coulomb: ``ke / r^3``."""
    return COULOMB / (r2 * np.sqrt(r2))


def self_energy(charges: np.ndarray, sigma: float) -> float:
    """Ewald self-interaction energy, subtracted from the mesh sum.

    Each point charge interacts with its own screening Gaussian:
    ``E_self = -ke * sum q_i^2 / (sqrt(2 pi) sigma)``.
    """
    return -float(COULOMB * np.sum(np.asarray(charges) ** 2) / (math.sqrt(2.0 * math.pi) * sigma))


def choose_sigma(cutoff: float, tolerance: float = EWALD_TOLERANCE) -> float:
    """Pick the Ewald sigma for a real-space cutoff and target accuracy.

    Solves ``erfc(cutoff / (sqrt(2) sigma)) = tolerance`` so the
    real-space kernel has decayed to ``tolerance`` at the cutoff —
    increasing the cutoff therefore allows a larger sigma and hence a
    coarser mesh, the tradeoff at the center of the paper's Table 2.
    """
    from scipy.special import erfcinv

    return float(cutoff / (math.sqrt(2.0) * erfcinv(tolerance)))

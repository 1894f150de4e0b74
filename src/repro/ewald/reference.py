"""Direct Ewald summation — the double-precision electrostatics oracle.

This is the "extremely conservative values for adjustable parameters"
reference the paper compares Anton's forces against (Section 5.2): the
real-space sum is taken over explicit periodic images and the k-space
sum over an exact sphere of wave vectors, at cost O(N² · images) —
usable only for small systems, which is all the accuracy tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from repro.geometry import Box
from repro.util import COULOMB

__all__ = ["EwaldResult", "direct_ewald"]


@dataclass(frozen=True)
class EwaldResult:
    """Energy components and forces of an electrostatics evaluation."""

    energy: float
    forces: np.ndarray
    energy_real: float = 0.0
    energy_k: float = 0.0
    energy_self: float = 0.0


def direct_ewald(
    positions: np.ndarray,
    charges: np.ndarray,
    box: Box,
    sigma: float,
    real_images: int = 1,
    kmax: int = 12,
) -> EwaldResult:
    """Full Ewald sum with explicit image and k-vector loops.

    Parameters
    ----------
    sigma:
        Gaussian screening width; ``erfc(r / (sqrt(2) sigma))`` decays
        the real-space term.
    real_images:
        Image shells for the real-space sum; 1 (nearest images) is
        ample when erfc has decayed by half a box length.
    kmax:
        Include wave vectors with integer components in [-kmax, kmax]
        (k=0 excluded).
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    n = len(positions)
    L = box.lengths
    V = box.volume
    alpha = 1.0 / (math.sqrt(2.0) * sigma)

    # --- real space: all pairs over image shells -----------------------
    e_real = 0.0
    f = np.zeros((n, 3))
    shells = range(-real_images, real_images + 1)
    for sx in shells:
        for sy in shells:
            for sz in shells:
                shift = np.array([sx, sy, sz]) * L
                d = positions[:, None, :] - positions[None, :, :] + shift
                r2 = np.sum(d * d, axis=2)
                if sx == sy == sz == 0:
                    np.fill_diagonal(r2, np.inf)
                r = np.sqrt(r2)
                qq = charges[:, None] * charges[None, :]
                sr = erfc(alpha * r) / r
                e_real += 0.5 * COULOMB * float(np.sum(qq * sr))
                pref = COULOMB * qq * (
                    erfc(alpha * r) / (r2 * r)
                    + 2.0 * alpha / math.sqrt(math.pi) * np.exp(-(alpha * r) ** 2) / r2
                )
                f += np.sum(pref[:, :, None] * d, axis=1)

    # --- k space --------------------------------------------------------
    e_k = 0.0
    ms = np.arange(-kmax, kmax + 1)
    MX, MY, MZ = np.meshgrid(ms, ms, ms, indexing="ij")
    mask = ~((MX == 0) & (MY == 0) & (MZ == 0))
    kvecs = 2.0 * math.pi * np.stack(
        [MX[mask] / L[0], MY[mask] / L[1], MZ[mask] / L[2]], axis=1
    )
    k2 = np.sum(kvecs * kvecs, axis=1)
    ak = np.exp(-(sigma**2) * k2 / 2.0) / k2  # (m,)
    phase = kvecs @ positions.T  # (m, n)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    S_re = cos_p @ charges
    S_im = sin_p @ charges
    e_k = COULOMB * (2.0 * math.pi / V) * float(np.sum(ak * (S_re**2 + S_im**2)))
    # F_i = ke (4 pi q_i / V) sum_k ak * k * (sin(k.r_i) S_re - cos(k.r_i) S_im)
    coef = ak[:, None] * kvecs  # (m, 3)
    fk = (sin_p * S_re[:, None] - cos_p * S_im[:, None]).T @ coef  # (n, 3)
    f += COULOMB * (4.0 * math.pi / V) * charges[:, None] * fk

    # --- self + neutralizing background ---------------------------------
    e_self = -COULOMB * float(np.sum(charges**2)) * alpha / math.sqrt(math.pi)
    q_total = float(np.sum(charges))
    e_background = -COULOMB * math.pi * q_total**2 / (2.0 * V * alpha**2)

    total = e_real + e_k + e_self + e_background
    return EwaldResult(
        energy=total, forces=f, energy_real=e_real, energy_k=e_k, energy_self=e_self
    )


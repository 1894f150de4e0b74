"""Bonded force terms: harmonic bonds, harmonic angles, periodic torsions.

Each routine returns per-term, per-atom force *contributions* rather
than a dense force array: the fixed-point pipeline quantizes each
contribution before accumulation (order-invariant integer sums), and
the simulated machine ships contributions between nodes.  Use
:func:`scatter_forces` for the plain float path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Box
from repro.forcefield.topology import Topology

__all__ = [
    "BondedContributions",
    "bond_forces",
    "angle_forces",
    "dihedral_forces",
    "all_bonded_forces",
    "scatter_forces",
]

_SIN_FLOOR = 1e-8


@dataclass(frozen=True)
class BondedContributions:
    """Force contributions of a batch of terms.

    ``idx`` has shape (m, k) — the k atoms of each of m terms; ``force``
    has shape (m, k, 3) and rows sum to ~0 (Newton's third law).
    ``energy_terms`` holds the per-term energies: their ``np.sum`` is
    ``energy``, the float path's total, and the fixed-point path reduces
    them to integer lane sums instead
    (:func:`repro.forcefield.energy_codes`).
    """

    energy: float
    idx: np.ndarray
    force: np.ndarray
    energy_terms: np.ndarray | None = None

    @property
    def n_terms(self) -> int:
        return len(self.idx)


def _empty(width: int) -> BondedContributions:
    return BondedContributions(
        0.0, np.empty((0, width), np.int64), np.empty((0, width, 3)), np.empty(0)
    )


def scatter_forces(n_atoms: int, contribs: list[BondedContributions]) -> np.ndarray:
    """Accumulate contributions into a dense (n_atoms, 3) float array."""
    forces = np.zeros((n_atoms, 3))
    for c in contribs:
        if c.n_terms:
            np.add.at(forces, c.idx.ravel(), c.force.reshape(-1, 3))
    return forces


def bond_forces(positions: np.ndarray, box: Box, top: Topology) -> BondedContributions:
    """Harmonic bonds, ``E = k (r - r0)^2``."""
    top.compile()
    if not len(top.bond_idx):
        return _empty(2)
    i, j = top.bond_idx[:, 0], top.bond_idx[:, 1]
    dx = box.minimum_image(positions[i] - positions[j])
    r = np.linalg.norm(dx, axis=1)
    delta = r - top.bond_r0
    et = top.bond_k * delta**2
    energy = float(np.sum(et))
    # F_i = -dE/dr * dr/dx_i = -2k*delta * dx/r
    fmag = (-2.0 * top.bond_k * delta / r)[:, None]
    f_i = fmag * dx
    force = np.stack([f_i, -f_i], axis=1)
    return BondedContributions(energy, top.bond_idx, force, et)


def angle_forces(positions: np.ndarray, box: Box, top: Topology) -> BondedContributions:
    """Harmonic angles, ``E = k (theta - theta0)^2`` (j is central)."""
    top.compile()
    if not len(top.angle_idx):
        return _empty(3)
    i, j, k = top.angle_idx[:, 0], top.angle_idx[:, 1], top.angle_idx[:, 2]
    u = box.minimum_image(positions[i] - positions[j])
    v = box.minimum_image(positions[k] - positions[j])
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    cos_t = np.clip(np.sum(u * v, axis=1) / (nu * nv), -1.0, 1.0)
    theta = np.arccos(cos_t)
    sin_t = np.maximum(np.sqrt(1.0 - cos_t**2), _SIN_FLOOR)
    delta = theta - top.angle_theta0
    et = top.angle_k * delta**2
    energy = float(np.sum(et))
    dEdt = 2.0 * top.angle_k * delta
    # grad_i theta = -(v/(nu nv) - cos * u/nu^2) / sin
    gi = -(v / (nu * nv)[:, None] - cos_t[:, None] * u / (nu**2)[:, None]) / sin_t[:, None]
    gk = -(u / (nu * nv)[:, None] - cos_t[:, None] * v / (nv**2)[:, None]) / sin_t[:, None]
    f_i = -dEdt[:, None] * gi
    f_k = -dEdt[:, None] * gk
    f_j = -f_i - f_k
    force = np.stack([f_i, f_j, f_k], axis=1)
    return BondedContributions(energy, top.angle_idx, force, et)


def dihedral_forces(positions: np.ndarray, box: Box, top: Topology) -> BondedContributions:
    """Periodic torsions, ``E = k (1 + cos(n*phi - delta))``."""
    top.compile()
    if not len(top.dihedral_idx):
        return _empty(4)
    ia, ib, ic, id_ = (top.dihedral_idx[:, c] for c in range(4))
    b1 = box.minimum_image(positions[ib] - positions[ia])
    b2 = box.minimum_image(positions[ic] - positions[ib])
    b3 = box.minimum_image(positions[id_] - positions[ic])
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    nb2 = np.linalg.norm(b2, axis=1)
    # phi = atan2((n1 x n2) . b2hat, n1 . n2)
    phi = np.arctan2(np.sum(np.cross(n1, n2) * b2, axis=1) / nb2, np.sum(n1 * n2, axis=1))
    arg = top.dihedral_n * phi - top.dihedral_delta
    et = top.dihedral_k * (1.0 + np.cos(arg))
    energy = float(np.sum(et))
    dEdphi = -top.dihedral_k * top.dihedral_n * np.sin(arg)
    n1sq = np.maximum(np.sum(n1 * n1, axis=1), 1e-16)
    n2sq = np.maximum(np.sum(n2 * n2, axis=1), 1e-16)
    gi = (-nb2 / n1sq)[:, None] * n1
    gl = (nb2 / n2sq)[:, None] * n2
    s12 = (np.sum(b1 * b2, axis=1) / nb2**2)[:, None]
    s32 = (np.sum(b3 * b2, axis=1) / nb2**2)[:, None]
    gj = -(1.0 + s12) * gi + s32 * gl
    gk = s12 * gi - (1.0 + s32) * gl
    f = -dEdphi[:, None, None] * np.stack([gi, gj, gk, gl], axis=1)
    return BondedContributions(energy, top.dihedral_idx, f, et)


def all_bonded_forces(
    positions: np.ndarray, box: Box, top: Topology
) -> list[BondedContributions]:
    """All bonded term batches for a topology."""
    return [
        bond_forces(positions, box, top),
        angle_forces(positions, box, top),
        dihedral_forces(positions, box, top),
    ]

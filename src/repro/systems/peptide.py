"""Synthetic protein builders.

No PDB structures or published force-field parameter sets are available
offline, so benchmark "proteins" are generated procedurally (see
DESIGN.md's substitution table):

* :func:`synthetic_protein` — an all-atom-like polymer (8 atoms per
  residue with bonds/angles/dihedrals and balanced partial charges)
  whose equilibrium bonded parameters are derived from the generated
  geometry, giving a relaxed, stable start.  Used for the Table 2/4 and
  Figure 5 workload/accuracy systems, where what matters is atom
  counts, densities, and term mixes.

* :func:`hp_miniprotein` — a hydrophobic/polar bead chain that
  collapses to a compact state and unfolds at elevated temperature:
  the Figure 7 (folding/unfolding trajectory) stand-in that actually
  folds on Python-simulatable timescales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forcefield import Topology
from repro.systems.types import (
    BEAD_HYDROPHOBIC,
    BEAD_POLAR,
    PROT_C,
    PROT_H,
    PROT_N,
    PROT_O,
)
from repro.util import make_rng

__all__ = ["ProteinFragment", "synthetic_protein", "hp_miniprotein"]


@dataclass
class ProteinFragment:
    """A built molecule fragment, ready to merge into a system."""

    positions: np.ndarray
    charges: np.ndarray
    masses: np.ndarray
    type_ids: np.ndarray
    topology: Topology

    @property
    def n_atoms(self) -> int:
        return len(self.positions)


# Residue template: local offsets from the CA position, with type,
# charge, and mass per atom.  Charges sum to zero per residue.
_RESIDUE_ATOMS = [
    # (name, offset, type, charge, mass)
    ("N", np.array([-1.20, 0.45, 0.00]), PROT_N, -0.40, 14.007),
    ("HN", np.array([-1.45, 1.42, 0.05]), PROT_H, 0.25, 1.008),
    ("CA", np.array([0.00, 0.00, 0.00]), PROT_C, 0.05, 12.011),
    ("HA", np.array([0.25, -0.60, 0.86]), PROT_H, 0.10, 1.008),
    ("CB", np.array([0.45, -0.80, -1.22]), PROT_C, -0.10, 12.011),
    ("HB", np.array([0.10, -1.83, -1.27]), PROT_H, 0.10, 1.008),
    ("C", np.array([1.05, 1.05, 0.10]), PROT_C, 0.55, 12.011),
    ("O", np.array([1.00, 2.10, -0.52]), PROT_O, -0.55, 15.999),
]
_ATOMS_PER_RESIDUE = len(_RESIDUE_ATOMS)
_NAME_TO_SLOT = {a[0]: i for i, a in enumerate(_RESIDUE_ATOMS)}

# Intra-residue bonds (by template name) and stiffnesses.
_RESIDUE_BONDS = [
    ("N", "HN", 434.0),
    ("N", "CA", 337.0),
    ("CA", "HA", 340.0),
    ("CA", "CB", 310.0),
    ("CB", "HB", 340.0),
    ("CA", "C", 317.0),
    ("C", "O", 570.0),
]
_INTER_BOND = ("C", "N", 490.0)  # C(i) - N(i+1)

_RESIDUE_ANGLES = [
    ("HN", "N", "CA", 35.0),
    ("N", "CA", "C", 63.0),
    ("N", "CA", "CB", 80.0),
    ("HA", "CA", "C", 50.0),
    ("CA", "C", "O", 80.0),
    ("CA", "CB", "HB", 50.0),
]
_INTER_ANGLES = [
    # (i residue names..., next-residue name last)
    (("CA", "C"), "N", 70.0),
    (("O", "C"), "N", 80.0),
]

_DIHEDRALS = [
    # phi/psi-like backbone torsions across the junction.
    (("N", "CA", "C"), "N", 0.45, 2),
    (("CB", "CA", "C"), "N", 0.30, 3),
]


def _chain_path(n_residues: int, spacing: float, rng: np.random.Generator) -> np.ndarray:
    """CA positions along a compact 3-D boustrophedon (globule-like).

    Consecutive residues occupy adjacent lattice points, so every
    inter-residue bond has length ~``spacing``.
    """
    per_side = max(int(np.ceil(n_residues ** (1.0 / 3.0))), 1)
    points: list[tuple[int, int, int]] = []
    for layer in range(per_side + 2):
        rows = range(per_side) if layer % 2 == 0 else range(per_side - 1, -1, -1)
        for row in rows:
            cols = range(per_side) if (layer + row) % 2 == 0 else range(per_side - 1, -1, -1)
            for col in cols:
                points.append((layer, row, col))
                if len(points) >= n_residues:
                    ca = np.array(points, dtype=np.float64) * spacing
                    ca += rng.normal(0.0, 0.05, ca.shape)
                    return ca
    raise AssertionError("unreachable")


#: C-alpha spacing (A) of :func:`synthetic_protein`'s chain path.
CA_SPACING = 4.9


def synthetic_protein(n_residues: int, seed: int = 0) -> ProteinFragment:
    """Build an all-atom-like synthetic protein of ``n_residues``.

    Bond lengths and angles take their equilibrium values from the
    as-built geometry, so the structure starts relaxed; dihedral terms
    add realistic torsional workload.  Bonds to hydrogens are distance
    *constraints*, exactly as in the paper's simulations ("Bond lengths
    to hydrogen atoms were constrained"), which is what permits the
    2.5 fs time step.  Per residue: ~5 bonds, 3 H constraints, 8
    angles, 2 dihedrals — the term densities the bond-term
    load-balancing and Table 2 profiles care about.
    """
    if n_residues < 1:
        raise ValueError("need at least one residue")
    rng = make_rng(seed)
    ca = _chain_path(n_residues, CA_SPACING, rng)
    n_atoms = n_residues * _ATOMS_PER_RESIDUE
    positions = np.empty((n_atoms, 3))
    charges = np.empty(n_atoms)
    masses = np.empty(n_atoms)
    type_ids = np.empty(n_atoms, dtype=np.int64)
    # Random per-residue rotation keeps the globule isotropic.
    for r in range(n_residues):
        rot = _random_rotation(rng)
        for s, (_name, offset, typ, q, m) in enumerate(_RESIDUE_ATOMS):
            a = r * _ATOMS_PER_RESIDUE + s
            positions[a] = ca[r] + rot @ offset
            charges[a] = q
            masses[a] = m
            type_ids[a] = typ

    top = Topology(n_atoms)

    def slot(r: int, name: str) -> int:
        return r * _ATOMS_PER_RESIDUE + _NAME_TO_SLOT[name]

    def dist(i: int, j: int) -> float:
        return float(np.linalg.norm(positions[i] - positions[j]))

    def angle(i: int, j: int, k: int) -> float:
        u = positions[i] - positions[j]
        v = positions[k] - positions[j]
        c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    hydrogens = {name for name, *_rest in _RESIDUE_ATOMS if name.startswith("H")}
    for r in range(n_residues):
        for a, b, k in _RESIDUE_BONDS:
            i, j = slot(r, a), slot(r, b)
            if a in hydrogens or b in hydrogens:
                top.add_constraint(i, j, dist(i, j))
            else:
                top.add_bond(i, j, k, dist(i, j))
        for a, b, c, k in _RESIDUE_ANGLES:
            i, j, kk = slot(r, a), slot(r, b), slot(r, c)
            top.add_angle(i, j, kk, k, angle(i, j, kk))
        if r + 1 < n_residues:
            a, b, k = _INTER_BOND
            i, j = slot(r, a), slot(r + 1, b)
            top.add_bond(i, j, k, dist(i, j))
            for (names, nxt, k2) in _INTER_ANGLES:
                i, j = slot(r, names[0]), slot(r, names[1])
                kk = slot(r + 1, nxt)
                top.add_angle(i, j, kk, k2, angle(i, j, kk))
            for (names, nxt, kphi, period) in _DIHEDRALS:
                i, j, kk = (slot(r, nm) for nm in names)
                ll = slot(r + 1, nxt)
                top.add_dihedral(i, j, kk, ll, kphi, period, 0.0)

    return ProteinFragment(
        positions=positions, charges=charges, masses=masses, type_ids=type_ids, topology=top
    )


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


#: Bond rest length (A) of :func:`hp_miniprotein`, and its starting spacing.
HP_BOND_LENGTH = 4.2


def hp_miniprotein(
    sequence: str = "HHPHHPPHHHPPHHPH",
    seed: int = 0,
) -> ProteinFragment:
    """A hydrophobic/polar bead mini-protein for folding studies.

    H beads attract strongly (deep LJ well), P beads weakly; at low
    temperature the chain collapses to a compact hydrophobic core and
    near its transition temperature it folds and unfolds repeatedly —
    the observable of the paper's 236 us gpW run (Figure 7), at bead-
    model scale.  Bonds and angles keep chain connectivity; there are
    no charges, so the model runs without electrostatics.
    """
    sequence = sequence.upper()
    if not sequence or any(c not in "HP" for c in sequence):
        raise ValueError("sequence must be a nonempty string of H and P")
    rng = make_rng(seed)
    n = len(sequence)
    # Start extended with slight random kinks (so folding is observable).
    positions = np.zeros((n, 3))
    direction = np.array([1.0, 0.0, 0.0])
    for i in range(1, n):
        kick = rng.normal(0.0, 0.15, 3)
        step = direction + kick
        step /= np.linalg.norm(step)
        positions[i] = positions[i - 1] + HP_BOND_LENGTH * step
        direction = step
    charges = np.zeros(n)
    masses = np.full(n, 100.0)  # heavy beads -> slow, stable dynamics
    type_ids = np.array(
        [BEAD_HYDROPHOBIC if c == "H" else BEAD_POLAR for c in sequence], dtype=np.int64
    )
    top = Topology(n)
    for i in range(n - 1):
        top.add_bond(i, i + 1, 20.0, HP_BOND_LENGTH)
    for i in range(n - 2):
        top.add_angle(i, i + 1, i + 2, 4.0, np.deg2rad(120.0))
    return ProteinFragment(
        positions=positions, charges=charges, masses=masses, type_ids=type_ids, topology=top
    )

"""Rigid water models: TIP3P (3-site) and TIP4P-Ew (4-site).

The paper's protein benchmarks use rigid TIP3P; the millisecond BPTI
run uses TIP4P-Ew, whose negative charge sits on a massless M site —
"each of the four particles in this water model is treated
computationally as an atom" (Section 5.3).  Rigidity comes from three
distance constraints (no bond/angle terms — which is why the paper's
water-only systems skip bond-term work entirely), and the M site is a
linear virtual site whose force redistributes to O/H/H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.forcefield.topology import Topology

__all__ = ["WaterModel", "TIP3P", "TIP4PEW", "water_site_positions", "add_water_to_topology"]

#: Water masses, amu.
MASS_O = 15.9994
MASS_H = 1.008


@dataclass(frozen=True)
class WaterModel:
    """Parameters of a rigid water model."""

    name: str
    r_oh: float          # O-H distance, A
    angle_hoh: float     # H-O-H angle, radians
    q_h: float           # charge on each hydrogen, e
    sigma_o: float       # LJ sigma on oxygen, A
    eps_o: float         # LJ epsilon on oxygen, kcal/mol
    r_om: float = 0.0    # O-M distance for 4-site models, A

    @property
    def four_site(self) -> bool:
        return self.r_om > 0.0

    @property
    def sites_per_molecule(self) -> int:
        return 4 if self.four_site else 3

    @property
    def q_charged_center(self) -> float:
        """Charge on O (3-site) or M (4-site)."""
        return -2.0 * self.q_h

    @property
    def r_hh(self) -> float:
        """H-H distance implied by the rigid geometry."""
        return 2.0 * self.r_oh * math.sin(self.angle_hoh / 2.0)

    @property
    def vsite_weight(self) -> float:
        """Linear vsite weight a with r_M = r_O + a (r_H1 - r_O) + a (r_H2 - r_O).

        At the rigid geometry the bisector has length
        ``2 r_oh cos(angle/2)``, so ``a = r_om / (2 r_oh cos(angle/2))``.
        """
        if not self.four_site:
            return 0.0
        return self.r_om / (2.0 * self.r_oh * math.cos(self.angle_hoh / 2.0))


TIP3P = WaterModel(
    name="TIP3P",
    r_oh=0.9572,
    angle_hoh=math.radians(104.52),
    q_h=0.417,
    sigma_o=3.15061,
    eps_o=0.1521,
)

TIP4PEW = WaterModel(
    name="TIP4P-Ew",
    r_oh=0.9572,
    angle_hoh=math.radians(104.52),
    q_h=0.52422,
    sigma_o=3.16435,
    eps_o=0.16275,
    r_om=0.125,
)


def water_site_positions(model: WaterModel) -> np.ndarray:
    """Local site coordinates of one molecule: O at the origin, the
    molecular plane = xz, bisector along +z.  Rows: O, H1, H2[, M]."""
    half = model.angle_hoh / 2.0
    hx = model.r_oh * math.sin(half)
    hz = model.r_oh * math.cos(half)
    sites = [
        [0.0, 0.0, 0.0],
        [hx, 0.0, hz],
        [-hx, 0.0, hz],
    ]
    if model.four_site:
        sites.append([0.0, 0.0, model.r_om])
    return np.array(sites)


def water_charges(model: WaterModel) -> np.ndarray:
    """Per-site charges in the O, H1, H2[, M] order."""
    if model.four_site:
        return np.array([0.0, model.q_h, model.q_h, model.q_charged_center])
    return np.array([model.q_charged_center, model.q_h, model.q_h])


def water_masses(model: WaterModel) -> np.ndarray:
    """Per-site masses; the M site is massless (a virtual site)."""
    if model.four_site:
        return np.array([MASS_O, MASS_H, MASS_H, 0.0])
    return np.array([MASS_O, MASS_H, MASS_H])


def add_water_to_topology(top: Topology, first_atom, model: WaterModel) -> None:
    """Register water molecules' constraints/vsites/exclusions.

    ``first_atom`` is the system index of a molecule's O site, or an
    array of them (one block of terms, in the order of the molecules);
    the H (and M) sites must follow contiguously in the builder's order.
    Per molecule: constraints O-H1, O-H2, H1-H2, then for 4-site models
    the M site and its exclusions from H1 and H2.
    """
    o = np.atleast_1d(np.asarray(first_atom, dtype=np.int64))
    h1, h2 = o + 1, o + 2
    n = len(o)
    top.add_terms(
        "constraint",
        np.stack([o, h1, o, h2, h1, h2], axis=1),
        np.tile([model.r_oh, model.r_oh, model.r_hh], n),
    )
    if model.four_site:
        m = o + 3
        top.add_terms("vsite", np.stack([m, o, h1, h2], axis=1), np.full(n, model.vsite_weight))
        # M interacts with nothing inside its own molecule.
        top.add_terms("exclusion", np.stack([m, h1, m, h2], axis=1))

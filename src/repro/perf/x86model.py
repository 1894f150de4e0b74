"""Calibrated cost model of a conventional x86 core running GROMACS.

Table 2's x86 column defines the baseline: a 2.66 GHz Xeon X5550
(Nehalem) core stepping the DHFR system.  The model assigns a constant
cost per unit of each work item, calibrated once against the small-
cutoff (9 A, 64^3) column; the large-cutoff column and every other
system are then *predictions* (EXPERIMENTS.md records anchors vs.
predictions).

The per-op magnitudes that fall out are themselves sanity checks:
~15 ns per range-limited pair interaction and ~2.6 ns per FFT
butterfly-unit are entirely plausible for scalar x86 code of the era.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from repro.perf.workload import StepWorkload

__all__ = ["X86Model", "TaskProfile"]

#: Calibration anchors: Table 2, x86, DHFR, small cutoff (9 A) + fine
#: mesh (64^3).  Values in milliseconds.
_ANCHOR = {
    "range_limited": 56.6,
    "fft": 12.3,
    "mesh_interpolation": 9.6,
    "correction": 4.0,
    "bonded": 2.7,
    "integration": 3.4,
}
_ANCHOR_ATOMS = 23558
_ANCHOR_SIDE = 62.2
_ANCHOR_CUTOFF = 9.0
_ANCHOR_MESH = 64


@dataclass(frozen=True)
class TaskProfile:
    """Per-task times (ms for x86, us for Anton) of one time step."""

    range_limited: float
    fft: float
    mesh_interpolation: float
    correction: float
    bonded: float
    integration: float

    @property
    def total(self) -> float:
        return (
            self.range_limited
            + self.fft
            + self.mesh_interpolation
            + self.correction
            + self.bonded
            + self.integration
        )

    def rows(self) -> list[tuple[str, float, float]]:
        """(task, time, fraction-of-total) rows, Table 2 style."""
        t = self.total
        return [
            ("Range-limited forces", self.range_limited, self.range_limited / t),
            ("FFT & inverse FFT", self.fft, self.fft / t),
            ("Mesh interpolation", self.mesh_interpolation, self.mesh_interpolation / t),
            ("Correction forces", self.correction, self.correction / t),
            ("Bonded forces", self.bonded, self.bonded / t),
            ("Integration", self.integration, self.integration / t),
        ]


class X86Model:
    """Single-core GROMACS-like cost model (times in milliseconds)."""

    def __init__(self):
        rho = _ANCHOR_ATOMS / _ANCHOR_SIDE**3
        anchor_pairs = _ANCHOR_ATOMS * (4.0 / 3.0) * math.pi * _ANCHOR_CUTOFF**3 * rho / 2.0
        self.ns_per_pair = _ANCHOR["range_limited"] * 1e6 / anchor_pairs
        m = _ANCHOR_MESH**3
        self.ns_per_fft_unit = _ANCHOR["fft"] * 1e6 / (m * math.log2(m))
        # GROMACS SPME order-4: 64 mesh points per atom, spread + gather.
        self.spme_stencil = 64.0
        self.ns_per_spread_point = _ANCHOR["mesh_interpolation"] * 1e6 / (
            _ANCHOR_ATOMS * 2.0 * self.spme_stencil
        )
        # Correction work scales with the excluded/1-4 list (water-dominated
        # here); fold the anchor into a per-atom cost for robustness.
        self.ns_per_atom_correction = _ANCHOR["correction"] * 1e6 / _ANCHOR_ATOMS
        self.ns_per_bonded_cost = None  # set below
        # The anchor system's bonded cost: DHFR-like protein of 324
        # residues (5 bonds + 8 angles + 2 dihedrals each; H bonds are
        # constraints).
        anchor_bonded_cost = (324 * 5) * 1.0 + (324 * 8) * 2.4 + (324 * 2) * 5.0
        self.ns_per_bonded_cost = _ANCHOR["bonded"] * 1e6 / anchor_bonded_cost
        self.ns_per_atom_integration = _ANCHOR["integration"] * 1e6 / _ANCHOR_ATOMS

    def profile(self, w: StepWorkload) -> TaskProfile:
        """Per-task step time (ms) for a whole-machine workload on one core."""
        return TaskProfile(
            range_limited=w.pairs_within_cutoff * self.ns_per_pair * 1e-6,
            fft=w.mesh_points * math.log2(max(w.mesh_points, 2)) * self.ns_per_fft_unit * 1e-6,
            mesh_interpolation=w.n_atoms * 2.0 * self.spme_stencil * self.ns_per_spread_point * 1e-6,
            correction=w.n_atoms * self.ns_per_atom_correction * 1e-6,
            bonded=w.bonded_cost * self.ns_per_bonded_cost * 1e-6,
            integration=w.n_atoms * self.ns_per_atom_integration * 1e-6,
        )

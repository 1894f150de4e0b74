"""The chemical system: state + static description of one simulation.

A :class:`ChemicalSystem` bundles the dynamic state (positions,
velocities) with everything static (masses, charges, LJ types,
topology, box, exclusions).  It also owns virtual-site bookkeeping —
placing massless sites from their parents and redistributing their
forces — which both the single-process and simulated-machine paths
share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forcefield import ExclusionTable, LJTable, Topology, build_exclusions
from repro.geometry import Box
from repro.util import ACCEL_UNIT, BOLTZMANN, make_rng

__all__ = ["ChemicalSystem"]


@dataclass
class ChemicalSystem:
    """State and parameters of a molecular system.

    ``meta`` carries builder-provided annotations used by the
    performance model and benchmarks (e.g. ``n_protein_atoms``,
    ``n_water_molecules``, ``name``).
    """

    box: Box
    positions: np.ndarray
    masses: np.ndarray
    charges: np.ndarray
    type_ids: np.ndarray
    lj: LJTable
    topology: Topology
    velocities: np.ndarray | None = None
    exclusions: ExclusionTable | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.positions)
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(n, 3)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        self.charges = np.asarray(self.charges, dtype=np.float64)
        self.type_ids = np.asarray(self.type_ids, dtype=np.int64)
        for name, arr in (("masses", self.masses), ("charges", self.charges), ("type_ids", self.type_ids)):
            if len(arr) != n:
                raise ValueError(f"{name} has {len(arr)} entries for {n} atoms")
        if self.topology.n_atoms != n:
            raise ValueError("topology atom count mismatch")
        self.topology.compile()
        if self.velocities is None:
            self.velocities = np.zeros((n, 3))
        self.velocities = np.asarray(self.velocities, dtype=np.float64).reshape(n, 3)
        if self.exclusions is None:
            self.exclusions = build_exclusions(self.topology)
        if np.any(self.masses < 0):
            raise ValueError("negative mass")
        vsites = np.unique(self.topology.vsite_idx[:, 0])
        if not np.array_equal(vsites, np.flatnonzero(self.masses == 0)):
            raise ValueError("massless atoms must be exactly the virtual sites")

    # -- sizes -----------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def massive(self) -> np.ndarray:
        """Boolean mask of atoms that carry mass (non-virtual sites)."""
        return self.masses > 0

    @property
    def n_dof(self) -> int:
        """Degrees of freedom: 3 per massive atom, minus constraints,
        minus 3 for conserved center-of-mass momentum."""
        return 3 * int(np.count_nonzero(self.massive)) - self.topology.n_constraints - 3

    # -- energetics --------------------------------------------------------

    def kinetic_energy(self, velocities: np.ndarray | None = None) -> float:
        """KE in kcal/mol (velocities in A/fs)."""
        v = self.velocities if velocities is None else velocities
        return 0.5 * float(np.sum(self.masses[:, None] * v * v)) / ACCEL_UNIT

    def temperature(self, velocities: np.ndarray | None = None) -> float:
        """Instantaneous temperature in K."""
        return self.temperature_of(self.kinetic_energy(velocities))

    def temperature_of(self, kinetic: float) -> float:
        """The temperature in K of a kinetic energy in kcal/mol."""
        return 2.0 * kinetic / (self.n_dof * BOLTZMANN)

    # -- virtual sites --------------------------------------------------------

    def place_virtual_sites(self, positions: np.ndarray) -> np.ndarray:
        """Set vsite rows of ``positions`` from their parents (in place).

        ``r_s = r_p + w (r_1 - r_p) + w (r_2 - r_p)`` with minimum-image
        differences so molecules straddling the boundary stay intact.
        """
        top = self.topology
        if not len(top.vsite_idx):
            return positions
        s, p, r1, r2 = (top.vsite_idx[:, c] for c in range(4))
        w = top.vsite_weight[:, None]
        d1 = self.box.minimum_image(positions[r1] - positions[p])
        d2 = self.box.minimum_image(positions[r2] - positions[p])
        positions[s] = positions[p] + w * d1 + w * d2
        return positions

    def spread_virtual_site_forces(self, forces: np.ndarray) -> np.ndarray:
        """Redistribute vsite forces to parents (in place); zero vsite rows.

        For the linear site the transpose of the placement map:
        parent gets ``(1 - 2w) F_s``, each reference atom ``w F_s``.
        """
        top = self.topology
        if not len(top.vsite_idx):
            return forces
        s, p, r1, r2 = (top.vsite_idx[:, c] for c in range(4))
        w = top.vsite_weight[:, None]
        fs = forces[s].copy()
        forces[s] = 0.0
        np.add.at(forces, p, (1.0 - 2.0 * w) * fs)
        np.add.at(forces, r1, w * fs)
        np.add.at(forces, r2, w * fs)
        return forces

    # -- initialization ----------------------------------------------------------

    def initialize_velocities(self, temperature: float, seed: int | None = None) -> None:
        """Maxwell–Boltzmann velocities at ``temperature``.

        Virtual sites get zero velocity; net momentum is removed; the
        result is rescaled to hit the target exactly (counting
        constrained DoF approximately — a thermostat or short
        equilibration absorbs the difference).
        """
        rng = make_rng(seed)
        n = self.n_atoms
        v = np.zeros((n, 3))
        m = self.massive
        # sigma_v = sqrt(kB T / m) in A/fs.
        sig = np.sqrt(BOLTZMANN * temperature * ACCEL_UNIT / self.masses[m])
        v[m] = rng.normal(size=(int(np.count_nonzero(m)), 3)) * sig[:, None]
        # Remove center-of-mass drift.
        p_total = np.sum(self.masses[:, None] * v, axis=0)
        v[m] -= p_total / np.sum(self.masses[m])
        self.velocities = v
        t_now = self.temperature()
        if t_now > 0:
            self.velocities *= np.sqrt(temperature / t_now)

    def copy(self) -> "ChemicalSystem":
        """Deep copy of the dynamic state (static parts shared)."""
        return ChemicalSystem(
            box=self.box,
            positions=self.positions.copy(),
            masses=self.masses,
            charges=self.charges,
            type_ids=self.type_ids,
            lj=self.lj,
            topology=self.topology,
            velocities=self.velocities.copy(),
            exclusions=self.exclusions,
            meta=dict(self.meta),
        )

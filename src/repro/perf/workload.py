"""Per-time-step workload counting.

Everything the cost models consume: range-limited pair counts, match
candidates, mesh and spreading work, bonded-term mixes, correction
lists, constraint counts — derived either analytically from a
benchmark spec (usable at 10^5 atoms) or by counting an actual built
system (used to validate the analytic path at small scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import MDParams
from repro.core.system import ChemicalSystem
from repro.geometry import neighbor_pairs
from repro.machine.flexible import TERM_COST
from repro.parallel.nt import match_efficiency

__all__ = ["StepWorkload", "workload_from_counts", "workload_from_system", "workload_from_spec"]

#: Per-residue term counts of the synthetic protein (see
#: :mod:`repro.systems.peptide`): 4 intra + 1 inter bond (H bonds are
#: constraints), 6 + 2 angles, 2 dihedrals.
TERMS_PER_RESIDUE = {"bond": 5.0, "angle": 8.0, "dihedral": 2.0}

#: Exclusions (1-2 + 1-3) and 1-4 pairs per protein residue, measured
#: from the synthetic topology (dominated by the 8-atom backbone graph).
EXCLUSIONS_PER_RESIDUE = 25.0
PAIR14_PER_RESIDUE = 11.0

#: Anton's physical charge-spreading radius (the BPTI run used 7.1 A).
SPREADING_RADIUS = 7.1


@dataclass(frozen=True)
class StepWorkload:
    """Work items of one MD time step (whole machine, per step)."""

    n_atoms: int
    n_protein_atoms: int
    pairs_within_cutoff: float
    pairs_considered: float          # tower x plate candidates (NT)
    mesh_points: int
    spreading_points_per_atom: float  # mesh points touched per atom
    bonded_cost: float               # weighted GC cost units
    n_bonded_terms: int
    correction_pairs: int
    n_constraints: int

    @property
    def match_efficiency(self) -> float:
        if self.pairs_considered == 0:
            return 1.0
        return self.pairs_within_cutoff / self.pairs_considered

    def per_node(self, n_nodes: int) -> "StepWorkload":
        """Even-split per-node view of the workload."""
        return StepWorkload(
            n_atoms=max(self.n_atoms // n_nodes, 1),
            n_protein_atoms=self.n_protein_atoms // n_nodes,
            pairs_within_cutoff=self.pairs_within_cutoff / n_nodes,
            pairs_considered=self.pairs_considered / n_nodes,
            mesh_points=max(self.mesh_points // n_nodes, 1),
            spreading_points_per_atom=self.spreading_points_per_atom,
            bonded_cost=self.bonded_cost / n_nodes,
            n_bonded_terms=self.n_bonded_terms // n_nodes,
            correction_pairs=self.correction_pairs // n_nodes,
            n_constraints=self.n_constraints // n_nodes,
        )


def _spreading_points(cutoff_mesh: float, h: float) -> float:
    """Mesh points inside the spreading sphere of radius ``cutoff_mesh``."""
    return 4.0 / 3.0 * math.pi * (cutoff_mesh / h) ** 3


def workload_from_counts(
    n_atoms: int,
    n_protein_atoms: int,
    side: float,
    params: MDParams,
    box_side_per_node: float,
    subbox_divisions: int = 2,
) -> StepWorkload:
    """Analytic workload from system-level counts (Table 4 scale).

    Pair counts use the uniform-density estimate
    ``N * (4/3 pi rc^3 rho) / 2``; candidates divide by the NT match
    efficiency of the node's subbox geometry.
    """
    rho = n_atoms / side**3
    pairs = n_atoms * (4.0 / 3.0 * math.pi * params.cutoff**3 * rho) / 2.0
    eff = match_efficiency(
        box_side_per_node, params.cutoff, subbox_divisions, density=rho, n_samples=4
    )
    n_res = n_protein_atoms / 8.0
    bonded_terms = {k: v * n_res for k, v in TERMS_PER_RESIDUE.items()}
    bonded_cost = sum(TERM_COST[k] * v for k, v in bonded_terms.items())
    n_waters = (n_atoms - n_protein_atoms) // 3
    corr = int(EXCLUSIONS_PER_RESIDUE * n_res + PAIR14_PER_RESIDUE * n_res + 3 * n_waters)
    h = side / params.mesh[0]
    n_constraints = 3 * n_waters + int(n_res * 3)  # water + H bonds
    return StepWorkload(
        n_atoms=n_atoms,
        n_protein_atoms=n_protein_atoms,
        pairs_within_cutoff=pairs,
        pairs_considered=pairs / max(eff, 1e-9),
        mesh_points=int(np.prod(params.mesh)),
        spreading_points_per_atom=_spreading_points(SPREADING_RADIUS, h),
        bonded_cost=bonded_cost,
        n_bonded_terms=int(sum(bonded_terms.values())),
        correction_pairs=corr,
        n_constraints=n_constraints,
    )


def workload_from_spec(spec, n_nodes: int = 512) -> StepWorkload:
    """Analytic workload for a Table 4 benchmark spec, at its own cutoff and mesh."""
    box_per_node = spec.side / round(n_nodes ** (1.0 / 3.0))
    return workload_from_counts(
        n_atoms=spec.n_atoms,
        n_protein_atoms=spec.n_protein_atoms,
        side=spec.side,
        params=MDParams(cutoff=spec.cutoff, mesh=spec.mesh_shape),
        box_side_per_node=box_per_node,
    )


def workload_from_system(
    system: ChemicalSystem, params: MDParams, box_side_per_node: float, subbox_divisions: int = 2
) -> StepWorkload:
    """Exact workload counted from a built system (small scale)."""
    pairs = neighbor_pairs(system.positions, system.box, params.cutoff)
    top = system.topology
    bonded_cost = (
        TERM_COST["bond"] * len(top.bond_idx)
        + TERM_COST["angle"] * len(top.angle_idx)
        + TERM_COST["dihedral"] * len(top.dihedral_idx)
    )
    rho = system.n_atoms / system.box.volume
    eff = match_efficiency(
        box_side_per_node, params.cutoff, subbox_divisions, density=rho, n_samples=4
    )
    h = float(np.max(system.box.lengths / np.asarray(params.mesh)))
    return StepWorkload(
        n_atoms=system.n_atoms,
        n_protein_atoms=int(system.meta.get("n_protein_atoms", 0)),
        pairs_within_cutoff=float(len(pairs.i)),
        pairs_considered=float(len(pairs.i)) / max(eff, 1e-9),
        mesh_points=int(np.prod(params.mesh)),
        spreading_points_per_atom=_spreading_points(min(SPREADING_RADIUS, params.cutoff), h),
        bonded_cost=bonded_cost,
        n_bonded_terms=len(top.bond_idx) + len(top.angle_idx) + len(top.dihedral_idx),
        correction_pairs=system.exclusions.n_excluded + system.exclusions.n_pair14,
        n_constraints=top.n_constraints,
    )

"""Force-field substrate: topologies, bonded terms, LJ/Coulomb
nonbonded kernels (PPIP-tabulated, and the analytic float64 oracle),
exclusions, and rigid water models."""

from repro.forcefield.bonded import (
    BondedContributions,
    all_bonded_forces,
    angle_forces,
    bond_forces,
    dihedral_forces,
    scatter_forces,
)
from repro.forcefield.exclusions import ExclusionTable, build_exclusions
from repro.forcefield.nonbonded import (
    NonbondedResult,
    build_kernel_tables,
    lj_energy_prefactor,
    nonbonded_real_space,
    nonbonded_real_space_tabulated,
)
from repro.forcefield.parameters import LJTable
from repro.forcefield.topology import Topology
from repro.forcefield.water import (
    TIP3P,
    TIP4PEW,
    WaterModel,
    add_water_to_topology,
    water_charges,
    water_masses,
    water_site_positions,
)

__all__ = [
    "BondedContributions",
    "all_bonded_forces",
    "angle_forces",
    "bond_forces",
    "dihedral_forces",
    "scatter_forces",
    "ExclusionTable",
    "build_exclusions",
    "NonbondedResult",
    "build_kernel_tables",
    "lj_energy_prefactor",
    "nonbonded_real_space",
    "nonbonded_real_space_tabulated",
    "LJTable",
    "Topology",
    "TIP3P",
    "TIP4PEW",
    "WaterModel",
    "add_water_to_topology",
    "water_charges",
    "water_masses",
    "water_site_positions",
]

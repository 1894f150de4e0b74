"""Ewald electrostatics: analytic kernels, Gaussian Split Ewald (GSE),
SPME baseline, excluded-pair corrections, and a direct-sum reference."""

from repro.ewald.correction import (
    CorrectionResult,
    CorrectionStatic,
    correction_forces,
    correction_forces_static,
    precompute_correction_static,
)
from repro.ewald.gse import GaussianSplitEwald, GSEParams, MeshStencilPlan
from repro.ewald.reference import EwaldResult, direct_ewald
from repro.ewald.spme import SmoothPME, SPMEParams, bspline
from repro.ewald.kernels import (
    choose_sigma,
    kspace_pair_energy_kernel,
    kspace_pair_force_kernel,
    plain_coulomb_energy_kernel,
    plain_coulomb_force_kernel,
    real_space_energy_kernel,
    real_space_force_kernel,
    self_energy,
)

__all__ = [
    "CorrectionResult",
    "CorrectionStatic",
    "correction_forces",
    "correction_forces_static",
    "precompute_correction_static",
    "GaussianSplitEwald",
    "MeshStencilPlan",
    "GSEParams",
    "EwaldResult",
    "direct_ewald",
    "SmoothPME",
    "SPMEParams",
    "bspline",
    "choose_sigma",
    "kspace_pair_energy_kernel",
    "kspace_pair_force_kernel",
    "plain_coulomb_energy_kernel",
    "plain_coulomb_force_kernel",
    "real_space_energy_kernel",
    "real_space_force_kernel",
    "self_energy",
]

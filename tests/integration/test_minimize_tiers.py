"""Integration: ``minimize_energy`` is the same bits on every kernel tier.

Preparation runs the float64 force path (``ForceCalculator.compute``)
and SHAKE on the resolved kernel suite.  Relaxed positions and returned
energy must not depend on it: NumPy tier, compiled tier at one thread,
compiled tier at four — for rigid water (tabulated kernels over a 40-bit
quantized mesh; the analytic oracle kernels over a float mesh), TIP4P/Ew
virtual sites, and a peptide with bonded terms and H-bond constraints.
The golden literals tie all three legs to one recorded set of bytes.
"""

import hashlib

import pytest

from repro.core import MDParams, minimize_energy
from repro.forcefield import TIP4PEW
from repro.kernels import available
from repro.systems import build_solvated_protein, build_water_box

needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)
TIERS = [
    pytest.param("numpy", 1, id="numpy"),
    pytest.param("compiled", 1, id="compiled-T1", marks=needs_compiler),
    pytest.param("compiled", 4, id="compiled-T4", marks=needs_compiler),
]

MESH = (16, 16, 16)
#: name -> (builder, params, minimiser iterations).
CASES = {
    "water-table-qmesh": (
        lambda: build_water_box(n_molecules=24, seed=11),
        MDParams(cutoff=4.0, mesh=MESH, kernel_mode="table", quantize_mesh_bits=40),
        25,
    ),
    "water-analytic-floatmesh": (
        lambda: build_water_box(n_molecules=24, seed=11),
        MDParams(cutoff=4.0, mesh=MESH, kernel_mode="analytic"),
        25,
    ),
    "tip4pew-table-floatmesh": (
        lambda: build_water_box(n_molecules=20, model=TIP4PEW, seed=2),
        MDParams(cutoff=3.8, mesh=MESH, kernel_mode="table"),
        20,
    ),
    "peptide-analytic-qmesh": (
        lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
        MDParams(cutoff=5.2, mesh=MESH, kernel_mode="analytic", quantize_mesh_bits=40),
        20,
    ),
    "peptide-table-floatmesh": (
        lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
        MDParams(cutoff=5.2, skin=0.3, mesh=MESH, kernel_mode="table"),
        20,
    ),
}

# (minimised energy, sha256 of the relaxed positions) of each case.
# First recorded from commit 7b33060 (PR 19), the last whose
# ``minimize_energy`` ran the NumPy float force path and NumPy SHAKE
# whatever the tier; re-recorded once when the mesh gather's sums moved
# from BLAS's matmul/einsum order into the order DESIGN.md's
# gather-order lemma defines (a rounding change: every case moves in its
# last bits), and the analytic cases started naming their kernel.
# Checked equal on the NumPy tier, the compiled tier at one and four
# threads, and the -march=x86-64 build.
GOLDEN = {
    "water-table-qmesh": (
        -166.2108112059227,
        "1b951f0b0b11287f66dec28e7a5a10e83ff06658f386519854d6d7dd0cb4ec2d",
    ),
    "water-analytic-floatmesh": (
        -145.38910187402462,
        "bcf51fd208c363d3e1eee28d885341567ce29080ce788c7cb46f08c7aadade9a",
    ),
    "tip4pew-table-floatmesh": (
        -104.94889626585245,
        "7c49f3b2b89a04c7a0cab2cefa91fcf681d31498e9fe3413266341f44bae15d3",
    ),
    "peptide-analytic-qmesh": (
        -47.25740843252697,
        "b9a7b0a1d3f32f56e8f8716afb285a50c6cc4517b0e6854406eebd5372b25c16",
    ),
    "peptide-table-floatmesh": (
        -67.91804368059775,
        "33245d6231f8b12d9a93ef70380586a9c34803206d21942549bf6a2f9c972088",
    ),
}


def minimise(name):
    """``(energy, sha256(positions))`` of one case on the ambient tier."""
    build, params, iterations = CASES[name]
    system = build()
    energy = minimize_energy(system, params, max_steps=iterations)
    return energy, hashlib.sha256(system.positions.tobytes()).hexdigest()


@pytest.mark.parametrize("tier, threads", TIERS)
@pytest.mark.parametrize("name", CASES)
def test_minimised_bits_are_the_numpy_minimisers(name, tier, threads, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", tier)
    monkeypatch.setenv("REPRO_KERNEL_THREADS", str(threads))
    assert minimise(name) == GOLDEN[name]


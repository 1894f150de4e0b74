"""Integration: ``minimize_energy`` is the same bits on every kernel tier.

Preparation runs the float64 force path (``ForceCalculator.compute``)
and SHAKE on the resolved kernel suite.  Relaxed positions and returned
energy must not depend on it: NumPy tier, compiled tier at one thread,
compiled tier at four — for rigid water (tabulated kernels over a 40-bit
quantized mesh; analytic kernels over a float mesh), TIP4P/Ew virtual
sites, and a peptide with bonded terms and H-bond constraints.  The
golden literals tie all three legs to the bytes of the last commit
whose minimiser evaluated forces in NumPy on every tier.
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
        MDParams(cutoff=4.0, mesh=MESH),
        25,
    ),
    "tip4pew-table-floatmesh": (
        lambda: build_water_box(n_molecules=20, model=TIP4PEW, seed=2),
        MDParams(cutoff=3.8, mesh=MESH, kernel_mode="table"),
        20,
    ),
    "peptide-analytic-qmesh": (
        lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
        MDParams(cutoff=5.2, mesh=MESH, quantize_mesh_bits=40),
        20,
    ),
    "peptide-table-floatmesh": (
        lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
        MDParams(cutoff=5.2, skin=0.3, mesh=MESH, kernel_mode="table"),
        20,
    ),
}

# (minimised energy, sha256 of the relaxed positions) of each case,
# recorded from commit 7b33060 (PR 19) — the last one whose
# ``minimize_energy`` ran the NumPy float force path and NumPy SHAKE
# whatever the tier.
GOLDEN = {
    "water-table-qmesh": (
        -166.21081120595545,
        "fe63ebaba56734130e020ae0f2d68d39de4f176e0e07ced5989b076a5d040392",
    ),
    "water-analytic-floatmesh": (
        -145.38910187402598,
        "7366041b036b5128f824c8abb5e7cb8e0d9d202bdcbeb599775bd0d4e20af5d5",
    ),
    "tip4pew-table-floatmesh": (
        -104.94889626585154,
        "9c20787945009c47b06bcd63109dcc080b9e1f76b31280686b80330f1708dd2d",
    ),
    "peptide-analytic-qmesh": (
        -47.25740843252697,
        "cb528e88400e7e6a2b49f534ad2f5dccc3d2bf93954d605b2ad39461ab0547a5",
    ),
    "peptide-table-floatmesh": (
        -67.9180436805982,
        "5cb85d3567e8d070147f83d7e7e3843547dd9b67f8d046967d76544370ce7321",
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


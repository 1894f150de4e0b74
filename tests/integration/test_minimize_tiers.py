"""Integration: ``minimize_energy`` is the same bits on every kernel tier.

Preparation runs the float64 force path (``ForceCalculator.compute``,
whose mesh spread is the float one) and the constraint solves (SETTLE,
SHAKE) on the resolved kernel suite.  Relaxed positions and returned
energy must not depend on it: NumPy tier, compiled tier at one thread, compiled tier at four — for
rigid water, TIP4P/Ew virtual sites, and a peptide with bonded terms
and H-bond constraints.
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
    "water": (
        lambda: build_water_box(n_molecules=24, seed=11),
        MDParams(cutoff=4.0, mesh=MESH),
        25,
    ),
    "tip4pew": (
        lambda: build_water_box(n_molecules=20, model=TIP4PEW, seed=2),
        MDParams(cutoff=3.8, mesh=MESH),
        20,
    ),
    "peptide": (
        lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
        MDParams(cutoff=5.2, skin=0.3, mesh=MESH),
        20,
    ),
}

# (minimised energy, sha256 of the relaxed positions) of each case.
# First recorded from commit 7b33060 (PR 19), the last whose
# ``minimize_energy`` ran the NumPy float force path and NumPy SHAKE
# whatever the tier; re-recorded once when the mesh gather's sums moved
# from BLAS's matmul/einsum order into the order DESIGN.md's
# gather-order lemma defines (a rounding change: every case moves in its
# last bits).  The water case moved once more when the minimiser's mesh
# spread became the float one whatever the parameters (it had spread
# through a 40-bit mesh); its new value is commit 2560655's with
# ``quantize_mesh_bits=None``.  Every case moved once more when rigid
# water began to be constrained by SETTLE instead of SHAKE sweeps (the
# peptide's waters; its X–H bonds are still swept).  Every case moved
# once more when the mesh solve became the repository's own radix-2
# FFT (kernels/fft.py) instead of NumPy's pocketfft, with the k-space
# energy summed in that kernel's order (the tip4pew energy kept its
# bits; its positions did not).  Every case moved once more when the
# float path's geometry began to read the position codes (DESIGN.md,
# integer geometry: each pair and mesh displacement rounded once, from
# the codes of the minimiser's positions).
# Checked equal on the NumPy tier, the compiled tier at one and four
# threads, and the -march=x86-64 build.
GOLDEN = {
    "water": (
        -166.21081118107668,
        "0376d74d2fcad1759b50eb88a10cf48d1b7439582dfb36add1147b23fd8b63c3",
    ),
    "tip4pew": (
        -104.9488962526284,
        "6f3a38a97e83e3d7fc274991e0f310e6d76712dbdd16172887e147b07728a67e",
    ),
    "peptide": (
        -67.91804365912049,
        "849349037adccf04c38cebe0a58ca68b218571106ffcad0dc10bc1fca4c83bfb",
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


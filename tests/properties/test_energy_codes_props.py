"""Property tests: every fixed-point energy is an integer lane sum.

:func:`~repro.forcefield.energy_codes` quantizes each term of a term
array with :data:`~repro.forcefield.ENERGY_CODEC` and wrap-adds the
codes per lane; ``ForceCalculator.compute_fixed`` and
``compute_long_fixed`` decode every energy key but the k-space and
self terms from such sums (DESIGN.md, order-free energy lemma).  So a
key's bits cannot depend on the order of its terms or on how many
replica lanes are stacked, and each total sits within ``n·q/2`` of the
exact sum of its ``n`` terms.  The system is the Figure 6 peptide
(bonds, angles, dihedrals, exclusions and 1-4 pairs), its atoms jiggled
off the ideal geometry so that every bonded kind has energy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForceCalculator, MDParams
from repro.core.integrator import FixedPointConfig
from repro.core.system import ChemicalSystem
from repro.ensemble.engine import EnsembleForceCalculator, tile_system
from repro.ewald import GSEParams, correction_forces_static, precompute_correction_static
from repro.forcefield import ENERGY_CODEC, all_bonded_forces, energy_codes
from repro.geometry import Box
from repro.kernels import available, get_suite
from repro.systems import synthetic_protein
from repro.systems.types import standard_lj_table

CUTOFF = 9.0
QUANTUM = ENERGY_CODEC.resolution
FORCE_CODEC = FixedPointConfig().force_codec()
#: The keys the fixed path decodes from energy codes other than the walk's.
TERM_KEYS = ("bond", "angle", "dihedral", "correction", "lj14")
LANES = 8

SUITES = [
    pytest.param("numpy", id="numpy"),
    pytest.param(
        "compiled", id="compiled",
        marks=pytest.mark.skipif(not available(), reason="no C compiler"),
    ),
]


def _peptide() -> ChemicalSystem:
    """``bench_figure6_order_params``'s peptide: 8 residues in a 42 A box."""
    frag = synthetic_protein(8, seed=0)
    box = Box.cubic(42.0)
    return ChemicalSystem(
        box=box,
        positions=frag.positions - frag.positions.mean(axis=0) + box.lengths / 2,
        masses=frag.masses,
        charges=frag.charges,
        type_ids=frag.type_ids,
        lj=standard_lj_table(),
        topology=frag.topology,
    )


@pytest.fixture(scope="module")
def peptide():
    system = _peptide()
    top = system.topology
    top.compile()
    counts = (
        len(top.bond_idx), len(top.angle_idx), len(top.dihedral_idx),
        system.exclusions.n_excluded, system.exclusions.n_pair14,
    )
    assert all(counts), counts
    return system


@pytest.fixture(scope="module")
def params(peptide):
    return MDParams(cutoff=CUTOFF, mesh=GSEParams.smallest_mesh(peptide.box, CUTOFF))


def _jiggle(system, rng, scale=0.15):
    return system.box.wrap(system.positions + rng.uniform(-scale, scale, system.positions.shape))


def _term_arrays(calc, positions) -> dict:
    """Each key's per-term energies, as ``calc``'s fixed path quantizes
    them (the exclusion and 1-4 Coulomb terms are one key, ``correction``)."""
    system = calc.system
    bonded = all_bonded_forces(positions, system.box, system.topology)
    static = precompute_correction_static(
        system.charges, system.type_ids, system.lj, system.exclusions
    )
    corr = correction_forces_static(positions, system.box, static, calc.sigma)
    return {
        "bond": [bonded[0].energy_terms],
        "angle": [bonded[1].energy_terms],
        "dihedral": [bonded[2].energy_terms],
        "correction": [corr.e_exclusion, corr.e_14_coul],
        "lj14": [corr.lj_scale14 * corr.e_14_lj],
    }


@pytest.fixture(scope="module")
def calc(peptide, params):
    return ForceCalculator(peptide.copy(), params)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_term_order_is_invisible(peptide, calc, seed):
    """Each term array shuffled, whole and within each of eight lanes:
    the same codes — integer sums commute."""
    rng = np.random.default_rng(seed)
    for key, arrays in _term_arrays(calc, _jiggle(peptide, rng)).items():
        for terms in arrays:
            assert len(terms), key
            want = energy_codes(terms)
            assert energy_codes(rng.permutation(terms)).tobytes() == want.tobytes(), key
            lanes = np.concatenate([terms * (1.0 + r / 16) for r in range(LANES)])
            shuffled = np.concatenate(
                [rng.permutation(block) for block in lanes.reshape(LANES, -1)]
            )
            assert energy_codes(shuffled, LANES).tobytes() == energy_codes(lanes, LANES).tobytes()


@pytest.mark.parametrize("tier", SUITES)
def test_eight_lanes_are_each_the_one_lane_calculator(peptide, params, tier):
    """R = 8 jiggled copies through one ``EnsembleForceCalculator``:
    every energy key of lane r, long range included, is bit for bit the
    solo ``ForceCalculator``'s at lane r's positions, on both suites."""
    suite = get_suite(tier, 1)
    rng = np.random.default_rng(5)
    n = peptide.n_atoms
    tiled = tile_system(peptide, LANES)
    ens = EnsembleForceCalculator(tiled, params, LANES, n, kernels=suite)
    solo = ForceCalculator(peptide.copy(), params, kernels=suite)
    for _ in range(2):
        lanes = [_jiggle(peptide, rng) for _ in range(LANES)]
        codes, report = ens.compute_fixed(np.concatenate(lanes), FORCE_CODEC)
        assert set(report.energies) >= set(TERM_KEYS)
        for r, x in enumerate(lanes):
            solo_codes, solo_report = solo.compute_fixed(x, FORCE_CODEC)
            np.testing.assert_array_equal(codes[r * n : (r + 1) * n], solo_codes)
            assert list(solo_report.energies) == list(report.energies)
            for key, value in solo_report.energies.items():
                assert isinstance(value, float), key
                lane = report.energies[key][r]
                assert np.float64(value).tobytes() == lane.tobytes(), (key, r)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_each_term_total_is_within_half_a_quantum_per_term(peptide, calc, seed):
    """``|fixed − Σ terms| ≤ n·q/2`` for each key, against the exact sum
    (``math.fsum``) and against the float path's ``np.sum`` total
    (``compute()``, what the fixed path reported before its energies
    were integer sums): each code is off by at most half a quantum, and
    the integer sum adds no error."""
    rng = np.random.default_rng(seed)
    x = _jiggle(peptide, rng)
    _, fixed = calc.compute_fixed(x, FORCE_CODEC)
    floats = calc.compute(x).energies
    for key, arrays in _term_arrays(calc, x).items():
        n = sum(len(terms) for terms in arrays)
        exact = math.fsum(np.concatenate(arrays))
        assert abs(fixed.energies[key] - exact) <= n * QUANTUM / 2, key
        assert abs(fixed.energies[key] - floats[key]) <= n * QUANTUM / 2, key

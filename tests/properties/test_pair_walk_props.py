"""Property tests: every suite's pair walk == the NumPy table evaluation, bitwise.

``pair_walk`` goes from the cached Verlet candidates to the force
accumulator.  Both suites read the position codes' minimum image (the
sign-extended code difference, rounded once into angstroms); the
compiled one is one C pass that drops two kinds of division on the way,
each on the strength of an exactness lemma stated in ``_kernels.c``: the
force quantization as one multiply for a power-of-two codec, and the
table offset as a reciprocal multiply for power-of-two segment widths.
The oracle (``pair_walk_oracle.numpy_walk``: filter, force-field
table evaluation, quantize, deposit, energy codes summed per row)
keeps every division literal, so each property below that lands on a
lemma's edge pins the lemma, and each that breaks a precondition pins
the division fallback.
The NumPy suite's walk — the same pipeline inside the suite — is one
more suite held to it.

The walk skips the dispersion tables for a pair whose A and B are both
zero (``_kernels.c``, LJ-free lemma); a TIP4P-Ew box, whose uncharged O
meets LJ-free H and M, pins that skip where the prefactor is itself a
zero, and the dispersion energy tables are pinned non-negative, the
lemma's precondition.

The NT route pass over the walk's home-box sets is pinned against the
serial backend's ``np.unique`` route derivation, element for element.

Skipped wholesale when the host has no C compiler.
"""

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams
from repro.core.forces import ForceCalculator
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.forcefield import TIP4PEW
from repro.forcefield.nonbonded import real_space_energy_kernel, real_space_force_kernel
from repro.functions import KernelTableSet, Tier
from repro.kernels import available, get_suite, make_pair_spec
from repro.machine.backends import VectorizedBackend
from repro.machine.config import ANTON_2008
from repro.systems import build_water_box
from repro.util import COULOMB
from tests.properties.pair_walk_oracle import (
    assert_walk_matches,
    candidates,
    divided_tables,
    edge_geometry,
    edge_rows,
    encode,
    in_rows,
    islands,
    oracle_pairs,
    oracle_sets,
)
from tests.properties.test_mesh_fused_props import assert_same_bits
from tests.serial_backend import _force_export_side

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

I64 = np.iinfo(np.int64)
CUTOFF = 4.0

#: The production force codec (both constants powers of two: one
#: multiply); a limit that is not (division fallback), at 62 bits so
#: that codes pass 2^53 and one ulp of the scaled force is a whole
#: code — a multiply taken there by mistake shows; and a codec so fine
#: that every code saturates at the 2^62 clip and sums wrap int64.
CODECS = {
    "pow2": ScaledFixed(FixedFormat(40), 8192.0),
    "division": ScaledFixed(FixedFormat(62), 3000.0),
    "saturating": ScaledFixed(FixedFormat(62), 2.0**-20),
}


@pytest.fixture(scope="module")
def suites():
    """NumPy, and compiled at one thread and four: the walk is serial at
    every thread count, and all three must say so."""
    return get_suite("numpy"), get_suite("compiled", 1), get_suite("compiled", 4)


@pytest.fixture(scope="module")
def calc():
    system = build_water_box(n_molecules=24, seed=11)
    params = MDParams(cutoff=CUTOFF, mesh=(16, 16, 16))
    return ForceCalculator(system, params)


def _spec(calc, codec="pow2", blocks=1, divided=False):
    """A pair spec over ``blocks`` stacked copies of the water box; with
    ``divided``, the dispersion layout (widths 2^-k / 3) stands in for
    the electrostatic one: a valid layout with no power-of-two width."""
    s = calc.system
    return make_pair_spec(
        divided_tables(calc.tables) if divided else calc.tables,
        s.lj, np.tile(s.charges, blocks), np.tile(s.type_ids, blocks), CODECS[codec],
    )


def _acc(rng, n_atoms):
    """A full-range accumulator, so deposits wrap."""
    return rng.integers(I64.min, I64.max, (n_atoms, 3), endpoint=True)


def test_spec_picks_each_rewrite_by_its_precondition(calc):
    """``make_pair_spec`` arms a rewrite only where its lemma applies."""
    spec = _spec(calc)
    assert spec.q_mul == 2.0**39 / 8192.0
    np.testing.assert_array_equal(spec.e_inv, 1.0 / spec.e_widths)
    assert np.all(np.frexp(spec.e_widths)[0] == 0.5)
    assert spec.d_inv is None  # 2^-k / 3
    assert _spec(calc, "division").q_mul == 0.0
    assert _spec(calc, "saturating").q_mul == 2.0**81


@given(
    seed=st.integers(0, 2**31 - 1),
    n_cand=st.sampled_from([0, 1, 255, 256, 257, 700]),
    blocks=st.sampled_from([1, 3]),
    codec=st.sampled_from(sorted(CODECS)),
    division_tables=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_walk_matches_numpy_passes(suites, calc, seed, n_cand, blocks, codec,
                                   division_tables):
    """Random geometry in a non-cubic box, every block-boundary count,
    stacked replica blocks, each codec and each table layout."""
    rng = np.random.default_rng(seed)
    n_atoms = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0]) * rng.uniform(0.9, 1.3, 3)
    wrapped = rng.uniform(0, 1, (blocks * n_atoms, 3)) * lengths
    wrapped[rng.integers(0, len(wrapped), 4), rng.integers(0, 3, 4)] = 0.0
    ii, jj = candidates(rng, n_atoms, blocks, n_cand)
    spec = _spec(calc, codec, blocks, division_tables)
    assert (spec.e_inv is None) == division_tables
    assert_walk_matches(suites, spec, encode(wrapped, lengths), ii, jj, lengths,
                        _acc(rng, len(wrapped)))


@pytest.mark.parametrize("division_tables", [False, True], ids=["pow2", "divided"])
@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("n_cand", [0, 1, 255, 256, 257])
def test_walk_at_every_block_boundary_count(suites, calc, n_cand, codec, division_tables):
    """The staged walk hands block-sized arrays from loop to loop: the
    whole grid of candidate counts around one block, both quantizer
    forms (and the clip) and both offset forms, not a sample of it."""
    rng = np.random.default_rng(n_cand)
    n_atoms = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0])
    codes = encode(rng.uniform(0, 1, (n_atoms, 3)) * lengths, lengths)
    ii, jj = candidates(rng, n_atoms, 1, n_cand)
    spec = _spec(calc, codec, divided=division_tables)
    assert (spec.q_mul == 0.0) == (codec == "division")
    assert (spec.e_inv is None) == division_tables and spec.d_inv is None
    assert_walk_matches(suites, spec, codes, ii, jj, lengths, _acc(rng, n_atoms))


@pytest.mark.parametrize("words", [1, 3])
@pytest.mark.parametrize("codec", ["pow2", "division"])
def test_block_mask_selection_edges(suites, calc, codec, words):
    """The walk selects survivors, and stage A its LJ pairs, 8 entries at a
    time (``_kernels.c``, block-mask lemma): rows of 0, 1, 7, 8, 9, 255,
    256 and 257 candidates, 8-groups all alive and all dead in turn, rows
    all alive and all dead past one walk block, LJ-free rows and rows
    whose only survivors are LJ pairs — with energies and force-only,
    one-word and multi-word home-box sets, and a partner buffer that runs
    past the rows (the rebuild's)."""
    blocks = 8
    rng = np.random.default_rng(words)
    n_atoms = blocks * calc.system.n_atoms
    spec = _spec(calc, codec, blocks)
    codes, lengths, near = edge_geometry(rng, n_atoms)
    a, b = (x.reshape(spec.n_types, -1) for x in (spec.amat, spec.bmat))
    t = spec.types
    ii, jj = edge_rows(rng, near, (a[t, t] != 0.0) | (b[t, t] != 0.0))
    assert set(np.bincount(ii)) >= {1, 7, 8, 9, 255, 256, 257, 260}
    alive = near[ii] & near[jj]
    lj = (a[t[ii], t[jj]] != 0.0) | (b[t[ii], t[jj]] != 0.0)
    n_alive, n_lj = (np.bincount(ii, weights=w, minlength=n_atoms) for w in (alive, alive & lj))
    assert np.any((n_alive > 0) & (n_lj == 0))        # a row of LJ-free survivors
    assert np.any((n_alive > 8) & (n_lj == n_alive))  # a row of LJ-pair survivors only
    m = assert_walk_matches(suites, spec, codes, ii, jj, lengths, _acc(rng, n_atoms),
                            words=words, slack=5)
    assert m == alive.sum()


#: The C walk's segment lookup (``rk_seg_init``): grid cells per unit of
#: u, and the most segments whose starts it keeps for the one compare.
SEG_GRID, SEG_MAX = 4096, 512


def _one_compare(starts, umax) -> bool:
    """Whether the fine segment grid's lemma holds for a layout: no grid
    cell (the last one up to ``umax``) holds two segment boundaries, so
    the walk locates u with one compare instead of its scan."""
    starts = np.asarray(starts)
    if len(starts) > SEG_MAX:
        return False
    g = np.arange(SEG_GRID)
    k = np.searchsorted(starts, g / SEG_GRID, side="right") - 1
    after = np.append(starts, [np.inf, np.inf])[k + 2]
    hi = (g + 1) / SEG_GRID
    return not np.any((after < hi) | ((g == SEG_GRID - 1) & (after <= umax)))


#: The fine tier of ``_scan_tables``' electrostatic layout: 64 segments
#: 2^-15 wide (eight to a grid cell) from u = 1/16, the table floor of a
#: 4 A cutoff (r_floor 1 A), so that they hold distinct cubics.
FINE_TIER = (1.0 / 16, 1.0 / 16 + 1.0 / 512)


def _scan_tables(calc) -> KernelTableSet:
    """``calc``'s tables with both layouts past the lemma: electrostatics
    with a fine tier (``FINE_TIER``), the dispersion pair on 600 segments
    (more than the lookup keeps)."""
    base = calc.tables
    ts = KernelTableSet(base.cutoff)
    ts.tables = dict(base.tables)
    lo, hi = FINE_TIER
    fine = (Tier(0.0, lo, 8), Tier(lo, hi, 64), Tier(hi, 1.0, 168))
    ts.add("elec_f", lambda r2: real_space_force_kernel(r2, calc.sigma) / COULOMB, tiers=fine)
    ts.add("elec_e", lambda r2: real_space_energy_kernel(r2, calc.sigma) / COULOMB, tiers=fine)
    many = (Tier(0.0, 1.0 / 16, 300), Tier(1.0 / 16, 1.0, 300))
    for name, f in (("lj12_f", lambda r2: 12.0 / r2**7), ("lj6_f", lambda r2: 6.0 / r2**4),
                    ("lj12_e", lambda r2: 1.0 / r2**6), ("lj6_e", lambda r2: 1.0 / r2**3)):
        ts.add(name, f, tiers=many)
    return ts


def test_production_layouts_take_the_one_compare(calc):
    spec = _spec(calc)
    assert _one_compare(spec.e_starts, spec.umax) and _one_compare(spec.d_starts, spec.umax)


@pytest.mark.parametrize("n_cand", [1, 257, 700])
def test_layouts_past_the_fine_grid_take_the_scan(suites, calc, n_cand):
    """Layouts that break the lemma's precondition keep the scan, and the
    walk still equals the oracle; half the pairs are drawn inside the
    fine tier, where one compare would pick the wrong segment."""
    s = calc.system
    tables = _scan_tables(calc)
    spec = make_pair_spec(tables, s.lj, s.charges, s.type_ids, CODECS["pow2"])
    assert not _one_compare(spec.e_starts, spec.umax)
    assert not _one_compare(spec.d_starts, spec.umax) and len(spec.d_starts) == 600
    rng = np.random.default_rng(n_cand)
    lengths = np.array([6.5, 9.25, 7.0])
    wrapped = rng.uniform(0, 1, (s.n_atoms, 3)) * lengths
    ii, jj = candidates(rng, s.n_atoms, 1, n_cand)
    near = rng.uniform(0.0, 1.0, len(ii)) < 0.5
    step = rng.normal(size=(near.sum(), 3))
    r = CUTOFF * np.sqrt(rng.uniform(*FINE_TIER, near.sum()))
    wrapped[jj[near]] = (wrapped[ii[near]] + step * (r / np.linalg.norm(step, axis=1))[:, None]) % lengths
    assert_walk_matches(suites, spec, encode(wrapped, lengths), ii, jj, lengths,
                        _acc(rng, s.n_atoms))


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_walk_through_blocks_without_a_survivor(suites, calc, codec):
    """Blocks the filter empties, between blocks it does not: the stages
    run on zero pairs, and the row sums carry across the gap."""
    rng = np.random.default_rng(9)
    blocks = 10
    n_atoms = blocks * calc.system.n_atoms
    codes, ii, jj, lengths = islands(rng, n_atoms)
    spec = _spec(calc, codec, blocks)
    survivors = assert_walk_matches(suites, spec, codes, ii, jj, lengths, _acc(rng, n_atoms))
    assert survivors == 20 * 19 // 2
    kept = np.zeros(len(ii), dtype=bool)
    kept[jj < 20] = True
    per_block = np.add.reduceat(kept, np.arange(0, len(ii), 256))
    assert (per_block == 0).sum() >= 19 and (per_block > 0).sum() >= 19


def test_saturating_codec_reaches_both_clips(calc):
    """The ``saturating`` cases above do sit on the +-2^62 clip: the
    oracle's own codes say so (and the walk equals the oracle)."""
    rng = np.random.default_rng(4)
    n_atoms = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0])
    wrapped = rng.uniform(0, 1, (n_atoms, 3)) * lengths
    ii, jj = candidates(rng, n_atoms, 1, 257)
    _, codes = oracle_pairs(_spec(calc, "saturating"), encode(wrapped, lengths), ii, jj, lengths)
    assert codes.max() == 2**62 and codes.min() == -(2**62)


#: Position codes: the half-box difference and the largest code.
HALF, TOP = 2**39, 2**40 - 1


def _pad(codes, spec):
    """``codes`` followed by code-0 atoms up to the spec's atom count."""
    return np.concatenate([codes, np.zeros((len(spec.charges) - len(codes), 3), dtype=np.int64)])


@given(seed=st.integers(0, 2**31 - 1), pow2_box=st.booleans())
@settings(max_examples=40, deadline=None)
def test_walk_at_the_half_box_and_the_box_edge(suites, calc, seed, pow2_box):
    """The codes' minimum image on its edges: per axis, code differences
    of ``±2**39`` (the half-box tie, which sign-extends to ``−2**39``) and
    1..3 codes either side, and atoms at codes ``0`` and ``2**40 − 1``."""
    rng = np.random.default_rng(seed)
    lengths = np.array([4.0, 8.0, 2.0]) if pow2_box else rng.uniform(5.0, 7.9, 3)
    rows, ii, jj = [], [], []
    for axis in range(3):
        for d in (HALF, HALF + 1, HALF + 2, HALF + 3, HALF - 1, HALF - 2, HALF - 3, TOP):
            for sign in (1, -1):
                # c[i] - c[j] == sign * d: one atom sits at code 0 on the axis.
                a = rng.integers(0, 2**38, 3)
                b = a + rng.integers(-2**37, 2**37, 3)
                b = np.where(b < 0, 0, b)
                a[axis], b[axis] = (d, 0) if sign > 0 else (0, d)
                ii.append(len(rows))
                jj.append(len(rows) + 1)
                rows += [a, b]
    codes = np.array(rows, dtype=np.int64)
    assert np.all((codes >= 0) & (codes <= TOP))
    n_atoms = calc.system.n_atoms
    spec = _spec(calc, blocks=-(-len(codes) // n_atoms))
    codes = _pad(codes, spec)
    m = assert_walk_matches(
        suites, spec, codes, np.array(ii), np.array(jj), lengths, _acc(rng, len(codes)),
    )
    assert m > 0  # the half-box images are inside the cutoff


def test_walk_at_the_cutoff_itself(suites, calc):
    """``r2 == cutoff2`` is out; one code inside is in, at the table's end.
    The box is 4 cutoffs long in x, so ``2**38`` codes are the cutoff exactly."""
    lengths = np.array([4 * CUTOFF, 13.0, 9.5])
    q = 2**38
    codes = np.array([
        [1000, 1000, 1000], [1000 + q, 1000, 1000],  # r2 == cutoff2: dropped
        [2000, 0, 2000], [2000 + q - 1, 0, 2000],    # one code inside: kept
        [3000, 3000, 3000], [3000, 3000, 3000],      # r2 == 0: kept, zero force
    ], dtype=np.int64)
    step = lengths * 2.0**-40
    assert (q * step[0]) ** 2 == CUTOFF**2 and ((q - 1) * step[0]) ** 2 < CUTOFF**2
    spec = _spec(calc)
    codes = _pad(codes, spec)
    ii, jj = np.array([0, 2, 4]), np.array([1, 3, 5])
    acc = np.zeros((len(codes), 3), dtype=np.int64)
    assert assert_walk_matches(suites, spec, codes, ii, jj, lengths, acc) == 2


def test_reciprocal_tables_equal_division_tables(suites, calc):
    """Lemma 3 head on: the same power-of-two layout walked with and
    without its reciprocals gives the same bytes."""
    rng = np.random.default_rng(5)
    n_atoms = calc.system.n_atoms
    lengths = np.array([7.0, 8.0, 9.0])
    codes = encode(rng.uniform(0, 1, (n_atoms, 3)) * lengths, lengths)
    ii, jj = candidates(rng, n_atoms, 1, 4000)
    spec = _spec(calc)
    acc = _acc(rng, n_atoms)
    assert_walk_matches(suites, spec, codes, ii, jj, lengths, acc)
    assert_walk_matches(suites, replace(spec, e_inv=None), codes, ii, jj, lengths, acc)


@given(seed=st.integers(0, 2**31 - 1), pow2_box=st.booleans())
@settings(max_examples=40, deadline=None)
def test_pair_rows_image_bits_on_adversarial_differences(calc, seed, pow2_box):
    """The codes' minimum image on ``pair_rows``' force rows, which carry
    ``dx``'s sign bits: same bits on both suites, sign of zero included,
    at code differences of ``±2**39 ± k``, ``±(2**40 − 1)``, ``0``, ``1``
    and at random, in boxes small enough that every image lies inside
    the cutoff."""
    numpy_k, compiled_k = get_suite("numpy"), get_suite("compiled")
    rng = np.random.default_rng(seed)
    # L <= 4.5 keeps r2 <= 3 (L/2)^2 < CUTOFF^2.
    lengths = 2.0 ** rng.integers(-3, 3, 3) if pow2_box else rng.uniform(0.1, 4.5, 3)
    ds = []
    for axis in range(3):
        d = [HALF, TOP, 0, 1]
        for k in range(1, 4):
            d += [HALF + k, HALF - k]
        d += list(rng.integers(0, TOP, 30, endpoint=True))
        # Each axis's zero on its own row: no pair of coincident atoms.
        ds.append(np.roll(d, axis))
    d = np.stack(ds, axis=1).astype(np.int64)
    assert np.all(d <= TOP) and not np.any(np.all(d == 0, axis=1))
    # Pair (2k, 2k+1) has c_i - c_j == +d, pair (2k+1, 2k) has -d.
    codes = np.zeros((2 * len(d), 3), dtype=np.int64)
    codes[0::2] = d
    ii = np.concatenate([np.arange(0, len(codes), 2), np.arange(1, len(codes), 2)])
    jj = np.concatenate([np.arange(1, len(codes), 2), np.arange(0, len(codes), 2)])
    spec = _spec(calc, blocks=-(-len(codes) // calc.system.n_atoms))
    codes = _pad(codes, spec)
    _, _, row_ptr, partners = in_rows(ii, jj, len(codes))
    outs = []
    for k in (numpy_k, compiled_k):
        n = len(ii)
        out = (np.empty(n, np.int64), np.empty(n, np.int64), np.empty((n, 3)),
               np.empty(n), np.empty(n))
        assert k.pair_rows(spec, codes, row_ptr, partners, lengths, *out) == n
        outs.append(out)
    for x, y in zip(*outs):
        np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))


# -- LJ-free pairs -------------------------------------------------------------


@pytest.fixture(scope="module")
def tip4p():
    """A TIP4P-Ew box: O has LJ and no charge, H and M charge and no LJ."""
    system = build_water_box(n_molecules=24, model=TIP4PEW, seed=2)
    return ForceCalculator(system, MDParams(cutoff=CUTOFF, mesh=(16, 16, 16)))


def _dispersion_only(lj, ti, tj):
    """``lj`` with type pair ``(ti, tj)`` given B but not A, which no
    Lorentz–Berthelot table has: the skip must test both."""
    lj = copy.copy(lj)
    lj.a_ij, lj.b_ij = lj.a_ij.copy(), lj.b_ij.copy()
    lj.a_ij[ti, tj] = lj.a_ij[tj, ti] = 0.0
    lj.b_ij[ti, tj] = lj.b_ij[tj, ti] = lj.b_ij.max()
    return lj


@pytest.mark.parametrize("table", ["tip4p", "dispersion_only"])
def test_lj_free_pairs_match_the_oracle(suites, tip4p, table):
    """The skip against the full table expression, on every pair of a
    TIP4P-Ew box: 8 of its 9 type pairs are LJ-free, and its O–H and O–M
    pairs are LJ-free with qq = 0, the zero-prefactor case.  Force codes,
    survivors and both rows of energy codes are equal (an e_lj of either
    zero quantizes to the code 0).  The ``dispersion_only`` table turns
    H–H into A = 0, B != 0, which the skip must not take."""
    s = tip4p.system
    lj = s.lj if table == "tip4p" else _dispersion_only(s.lj, *s.type_ids[1:3])
    spec = make_pair_spec(tip4p.tables, lj, s.charges, s.type_ids, CODECS["pow2"])
    codes = encode(s.positions, s.box.lengths)
    ii, jj = (a.astype(np.int64) for a in np.triu_indices(s.n_atoms, k=1))
    a, b = lj.pair_coefficients(s.type_ids[ii], s.type_ids[jj])
    free = (a == 0.0) & (b == 0.0)
    assert np.any(free & (s.charges[ii] * s.charges[jj] == 0.0)) and np.any(~free)
    assert np.any((a == 0.0) & (b != 0.0)) == (table == "dispersion_only")
    lengths = s.box.lengths.copy()
    acc = np.zeros((s.n_atoms, 3), dtype=np.int64)
    assert assert_walk_matches(suites, spec, codes, ii, jj, lengths, acc) > 0


def test_lj_free_float_rows_deposit_the_oracle_forces(suites, tip4p):
    """The float path on the TIP4P-Ew box: ``pair_rows`` gives the
    oracle's rows by value (a zero-prefactor row may be a zero of the
    other sign), and their ordered deposit gives the oracle's forces,
    bit for bit — a force sum from +0.0 never sees the sign of a zero."""
    s = tip4p.system
    spec = make_pair_spec(tip4p.tables, s.lj, s.charges, s.type_ids)
    codes = encode(s.positions, s.box.lengths)
    ii, jj, row_ptr, partners = in_rows(*np.triu_indices(s.n_atoms, k=1), s.n_atoms)
    lengths = s.box.lengths.copy()
    want, _ = oracle_pairs(replace(spec, codec=CODECS["pow2"]), codes, ii, jj, lengths)
    want_f = np.zeros((s.n_atoms, 3))
    np.add.at(want_f, want.i, want.force)
    np.add.at(want_f, want.j, -want.force)
    n = len(partners)
    for suite in suites:
        oi, oj, rows = np.empty(n, np.int64), np.empty(n, np.int64), np.empty((n, 3))
        m = suite.pair_rows(spec, codes, row_ptr, partners, lengths, oi, oj, rows,
                            np.empty(n), np.empty(n))
        np.testing.assert_array_equal(rows[:m], want.force)
        forces = np.zeros((s.n_atoms, 3))
        suite.deposit_pairs_float(forces, oi[:m], oj[:m], rows[:m])
        assert_same_bits(forces, want_f)


@pytest.mark.parametrize("name", ["lj12_e", "lj6_e"])
def test_dispersion_energy_tables_are_non_negative(calc, name):
    """The LJ-free lemma's precondition: e12 and e6 are >= +0.0 (not -0.0)
    at every segment's start, midpoint and end, so A·e12 - B·e6 is +0.0
    for A = B = 0, the e_lj the walk writes."""
    table = calc.tables.tables[name]
    seg = np.arange(table.n_segments)
    for t in (0.0, 0.5, 1.0):
        v = table.evaluate_at(seg, np.full(len(seg), t))
        assert np.all(v >= 0.0) and not np.any(np.signbit(v))


# -- NT marks ---------------------------------------------------------------


class _Recorder:
    """Stands in for the network: keeps what ``send_batch`` was handed."""

    def __init__(self):
        self.batches = []

    def send_batch(self, src, dst, nbytes, tag):
        assert tag == "force_export"
        self.batches.append((src, dst, nbytes))


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.sampled_from([1, 8, 64, 128]),
    mode=st.sampled_from(["random", "all_local", "all_remote"]),
)
@settings(max_examples=60, deadline=None)
def test_marks_routes_equal_the_serial_unique_routes(seed, n_nodes, mode):
    """Home-box sets -> route counts -> routes == ``_force_export_side``'s
    ``np.unique`` routes over the pairs, ``(src, dst, nbytes)`` element
    for element, on both tiers (DESIGN.md, home-box-set lemma)."""
    rng = np.random.default_rng(seed)
    n_atoms, n_pairs = 40, int(rng.integers(0, 600))
    i = rng.integers(0, n_atoms, n_pairs)
    j = rng.integers(0, n_atoms, n_pairs)
    home = rng.integers(0, n_nodes, n_atoms)
    node_tab = rng.integers(0, n_nodes, (n_nodes, n_nodes))
    owners = rng.integers(0, n_nodes, n_atoms)
    if mode == "all_local":
        node_tab[...] = 0
        owners[...] = 0
    elif mode == "all_remote" and n_nodes > 1:
        node_tab[...] = 1
        owners[...] = 0
    machine = SimpleNamespace(
        topology=SimpleNamespace(n_nodes=n_nodes), owners=owners, hw=ANTON_2008,
    )
    pair_nodes = node_tab[home[i], home[j]]
    want = [_force_export_side(machine, pair_nodes, atoms) for atoms in (i, j)]
    if mode == "all_local" or n_nodes == 1:
        assert want == [None, None]
    words = -(-n_nodes // 64)
    sets = oracle_sets(SimpleNamespace(i=i, j=j), home, n_atoms, words)
    for suite in (get_suite("numpy"), get_suite("compiled")):
        routes = np.full((2, n_nodes * n_nodes), 5, dtype=np.int64)
        suite.nt_routes(sets, home, node_tab, owners, routes)
        machine.network = _Recorder()
        VectorizedBackend().account_force_export(machine, routes)
        assert len(machine.network.batches) == 2
        for (src, dst, nbytes), side in zip(machine.network.batches, want):
            remote = src != dst  # send_batch drops the local routes
            if side is None:
                assert not remote.any()
                continue
            for got, ref in zip((src, dst, nbytes), side):
                np.testing.assert_array_equal(got[remote], ref)

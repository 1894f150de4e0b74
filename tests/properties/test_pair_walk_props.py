"""Property tests: every suite's pair walk == the NumPy table evaluation, bitwise.

``pair_walk`` goes from the cached Verlet candidates to the force
accumulator.  The compiled one is one C pass that drops three kinds of
division on the way, each on the strength of an exactness lemma stated
in ``_kernels.c``: the minimum image of wrapped coordinates without
``d / L``, the force quantization as one multiply for a power-of-two
codec, and the table offset as a reciprocal multiply for power-of-two
segment widths.  The oracle (``pair_walk_oracle.numpy_walk``: filter,
force-field table evaluation, quantize, deposit) keeps every division
literal, so each property below that lands on a lemma's edge pins the
lemma, and each that breaks a precondition pins the division fallback.
The NumPy suite's walk — the same pipeline inside the suite — is one
more suite held to it.

The walk skips the dispersion tables for a pair whose A and B are both
zero (``_kernels.c``, LJ-free lemma); a TIP4P-Ew box, whose uncharged O
meets LJ-free H and M, pins that skip where the prefactor is itself a
zero, and the dispersion energy tables are pinned non-negative, the
lemma's precondition.

The NT marks pass is pinned against the serial backend's ``np.unique``
route derivation, element for element.

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
from repro.kernels import available, get_suite, make_pair_spec
from repro.machine.backends import VectorizedBackend
from repro.machine.config import ANTON_2008
from repro.systems import build_water_box
from tests.properties.pair_walk_oracle import (
    assert_walk_matches,
    candidates,
    divided_tables,
    in_rows,
    islands,
    numpy_walk,
    oracle_pairs,
    suite_walk,
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
    assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, _acc(rng, len(wrapped)))


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
    wrapped = rng.uniform(0, 1, (n_atoms, 3)) * lengths
    ii, jj = candidates(rng, n_atoms, 1, n_cand)
    spec = _spec(calc, codec, divided=division_tables)
    assert (spec.q_mul == 0.0) == (codec == "division")
    assert (spec.e_inv is None) == division_tables and spec.d_inv is None
    assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, _acc(rng, n_atoms))


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_walk_through_blocks_without_a_survivor(suites, calc, codec):
    """Blocks the filter empties, between blocks it does not: the stages
    run on zero pairs, and the row sums carry across the gap."""
    rng = np.random.default_rng(9)
    blocks = 10
    n_atoms = blocks * calc.system.n_atoms
    wrapped, ii, jj, lengths = islands(rng, n_atoms)
    spec = _spec(calc, codec, blocks)
    survivors = assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, _acc(rng, n_atoms))
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
    _, codes = oracle_pairs(_spec(calc, "saturating"), wrapped, ii, jj, lengths)
    assert codes.max() == 2**62 and codes.min() == -(2**62)


@given(seed=st.integers(0, 2**31 - 1), pow2_box=st.booleans())
@settings(max_examples=40, deadline=None)
def test_walk_at_the_half_box_and_the_box_edge(suites, calc, seed, pow2_box):
    """Minimum image without division, on its edges: per axis, ``d`` at
    ``+-L/2`` and 1..3 ulp either side, and atoms at ``0`` and ``L - ulp``."""
    rng = np.random.default_rng(seed)
    lengths = np.array([4.0, 8.0, 2.0]) if pow2_box else rng.uniform(5.0, 7.9, 3)
    rows, ii, jj = [], [], []
    for axis in range(3):
        L = lengths[axis]
        h = 0.5 * L
        edge = [h]
        for _ in range(3):
            edge += [np.nextafter(edge[-1], np.inf)]
        for _ in range(3):
            edge += [np.nextafter(min(edge), -np.inf)]
        for d in (*edge, np.nextafter(L, 0.0)):
            for sign in (1, -1):
                # x[i] - x[j] == sign * d exactly: one atom sits at 0.
                a = rng.uniform(0, 1, 3) * 0.4
                b = a + rng.uniform(-0.3, 0.3, 3)
                b = np.where(b < 0, 0.0, b)
                a[axis], b[axis] = (d, 0.0) if sign > 0 else (0.0, d)
                ii.append(len(rows))
                jj.append(len(rows) + 1)
                rows += [a, b]
    wrapped = np.array(rows)
    assert np.all((wrapped >= 0) & (wrapped < lengths))
    n_atoms = calc.system.n_atoms
    spec = _spec(calc, blocks=-(-len(wrapped) // n_atoms))
    wrapped = np.concatenate(
        [wrapped, np.zeros((len(spec.charges) - len(wrapped), 3))]
    )
    m = assert_walk_matches(
        suites, spec, wrapped, np.array(ii), np.array(jj), lengths,
        _acc(rng, len(wrapped)),
    )
    assert m > 0  # the half-box images are inside the cutoff


def test_walk_at_the_cutoff_itself(suites, calc):
    """``r2 == cutoff2`` is out; one ulp inside is in, at the table's end."""
    lengths = np.array([11.0, 13.0, 9.5])
    inside = np.nextafter(CUTOFF, 0.0)
    wrapped = np.array([
        [1.0, 1.0, 1.0], [1.0 + CUTOFF, 1.0, 1.0],  # r2 == cutoff2: dropped
        [2.0, 0.0, 2.0], [2.0, inside, 2.0],        # just inside: kept
        [3.0, 3.0, 3.0], [3.0, 3.0, 3.0],           # r2 == 0: kept, zero force
    ])
    spec = _spec(calc)
    wrapped = np.concatenate([wrapped, np.zeros((len(spec.charges) - 6, 3))])
    ii, jj = np.array([0, 2, 4]), np.array([1, 3, 5])
    acc = np.zeros((len(wrapped), 3), dtype=np.int64)
    assert assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc) == 2


def test_reciprocal_tables_equal_division_tables(suites, calc):
    """Lemma 3 head on: the same power-of-two layout walked with and
    without its reciprocals gives the same bytes."""
    rng = np.random.default_rng(5)
    n_atoms = calc.system.n_atoms
    lengths = np.array([7.0, 8.0, 9.0])
    wrapped = rng.uniform(0, 1, (n_atoms, 3)) * lengths
    ii, jj = candidates(rng, n_atoms, 1, 4000)
    spec = _spec(calc)
    acc = _acc(rng, n_atoms)
    assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc)
    assert_walk_matches(suites, replace(spec, e_inv=None), wrapped, ii, jj, lengths, acc)


@given(seed=st.integers(0, 2**31 - 1), pow2_box=st.booleans())
@settings(max_examples=40, deadline=None)
def test_pair_rows_image_bits_on_adversarial_differences(calc, seed, pow2_box):
    """Lemma 1 on ``pair_rows``' force rows, which carry ``dx``'s sign
    bits: same bits, sign of zero included, at ``+-L/2 +- k ulp``, near
    ``+-L`` and at random ``d``, in boxes small enough that every image
    lies inside the cutoff."""
    numpy_k, compiled_k = get_suite("numpy"), get_suite("compiled")
    rng = np.random.default_rng(seed)
    # L <= 4.5 keeps r2 <= 3 (L/2)^2 < CUTOFF^2.
    lengths = 2.0 ** rng.integers(-3, 3, 3) if pow2_box else rng.uniform(0.1, 4.5, 3)
    ds = []
    for axis, L in enumerate(lengths):
        h = 0.5 * L
        d = [h, np.nextafter(L, 0.0), 0.0, np.nextafter(0.0, 1.0)]
        for k in range(1, 4):
            d += [h + k * np.spacing(h), h - k * np.spacing(h)]
        d += list(rng.uniform(0, 1, 30) * np.nextafter(L, 0.0))
        # Each axis's zero on its own row: no pair of coincident atoms.
        ds.append(np.roll(d, axis))
    d = np.stack(ds, axis=1)
    assert np.all(d < lengths) and not np.any(np.all(d == 0.0, axis=1))
    # Pair (2k, 2k+1) has x_i - x_j == +d, pair (2k+1, 2k) has -d.
    wrapped = np.zeros((2 * len(d), 3))
    wrapped[0::2] = d
    ii = np.concatenate([np.arange(0, len(wrapped), 2), np.arange(1, len(wrapped), 2)])
    jj = np.concatenate([np.arange(1, len(wrapped), 2), np.arange(0, len(wrapped), 2)])
    spec = _spec(calc, blocks=-(-len(wrapped) // calc.system.n_atoms))
    wrapped = np.concatenate([wrapped, np.zeros((len(spec.charges) - len(wrapped), 3))])
    _, _, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    outs = []
    for k in (numpy_k, compiled_k):
        n = len(ii)
        out = (np.empty(n, np.int64), np.empty(n, np.int64), np.empty((n, 3)),
               np.empty(n), np.empty(n))
        assert k.pair_rows(spec, wrapped, row_ptr, partners, lengths, *out) == n
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
    pairs are LJ-free with qq = 0, the zero-prefactor case.  Codes and
    survivors are equal, the e_coul bits, the e_lj values, and the bits
    of their sum.  The ``dispersion_only`` table turns H–H into A = 0,
    B != 0, which the skip must not take."""
    s = tip4p.system
    lj = s.lj if table == "tip4p" else _dispersion_only(s.lj, *s.type_ids[1:3])
    spec = make_pair_spec(tip4p.tables, lj, s.charges, s.type_ids, CODECS["pow2"])
    wrapped = s.box.wrap(s.positions)
    ii, jj = (a.astype(np.int64) for a in np.triu_indices(s.n_atoms, k=1))
    a, b = lj.pair_coefficients(s.type_ids[ii], s.type_ids[jj])
    free = (a == 0.0) & (b == 0.0)
    assert np.any(free & (s.charges[ii] * s.charges[jj] == 0.0)) and np.any(~free)
    assert np.any((a == 0.0) & (b != 0.0)) == (table == "dispersion_only")
    lengths = s.box.lengths.copy()
    acc = np.zeros((s.n_atoms, 3), dtype=np.int64)
    assert assert_walk_matches(suites, spec, wrapped, ii, jj, lengths, acc) > 0
    *_, e_lj, e_coul = numpy_walk(spec, wrapped, ii, jj, lengths, acc)
    _, _, row_ptr, partners = in_rows(ii, jj, s.n_atoms)
    for suite in suites:
        got = suite_walk(suite, spec, wrapped, row_ptr, partners, lengths, acc)
        assert_same_bits(got[4], e_coul)
        assert_same_bits(np.sum(got[3]), np.sum(e_lj))


def test_lj_free_float_rows_deposit_the_oracle_forces(suites, tip4p):
    """The float path on the TIP4P-Ew box: ``pair_rows`` gives the
    oracle's rows by value (a zero-prefactor row may be a zero of the
    other sign), and their ordered deposit gives the oracle's forces,
    bit for bit — a force sum from +0.0 never sees the sign of a zero."""
    s = tip4p.system
    spec = make_pair_spec(tip4p.tables, s.lj, s.charges, s.type_ids)
    wrapped = s.box.wrap(s.positions)
    ii, jj, row_ptr, partners = in_rows(*np.triu_indices(s.n_atoms, k=1), s.n_atoms)
    lengths = s.box.lengths.copy()
    want, _ = oracle_pairs(replace(spec, codec=CODECS["pow2"]), wrapped, ii, jj, lengths)
    want_f = np.zeros((s.n_atoms, 3))
    np.add.at(want_f, want.i, want.force)
    np.add.at(want_f, want.j, -want.force)
    n = len(partners)
    for suite in suites:
        oi, oj, rows = np.empty(n, np.int64), np.empty(n, np.int64), np.empty((n, 3))
        m = suite.pair_rows(spec, wrapped, row_ptr, partners, lengths, oi, oj, rows,
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
    n_nodes=st.sampled_from([1, 8, 64]),
    mode=st.sampled_from(["random", "all_local", "all_remote"]),
)
@settings(max_examples=60, deadline=None)
def test_marks_routes_equal_the_serial_unique_routes(seed, n_nodes, mode):
    """Marks -> routes == ``_force_export_side``'s ``np.unique`` routes,
    ``(src, dst, nbytes)`` element for element, on both tiers."""
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
    for suite in (get_suite("numpy"), get_suite("compiled")):
        marks = tuple(np.ones((n_atoms, n_nodes), dtype=np.bool_) for _ in "ij")
        suite.nt_marks(i, j, home, node_tab, *marks)
        machine.network = _Recorder()
        VectorizedBackend().account_force_export(machine, marks)
        assert len(machine.network.batches) == 2
        for (src, dst, nbytes), side in zip(machine.network.batches, want):
            remote = src != dst  # send_batch drops the local routes
            if side is None:
                assert not remote.any()
                continue
            for got, ref in zip((src, dst, nbytes), side):
                np.testing.assert_array_equal(got[remote], ref)

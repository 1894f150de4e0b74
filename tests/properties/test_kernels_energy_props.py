"""Property tests: the pair walk's energies are order-free integer sums.

The walk quantizes each surviving pair's LJ and Coulomb energy with
:data:`~repro.forcefield.ENERGY_CODEC` and wrap-adds the codes into
per-row int64 sums (``e_rows``); a total is a sum of rows, decoded once
(DESIGN.md, order-free energy lemma).  Integer sums commute, so the
energy bits cannot depend on the order of partners within a row, on
where a row's blocks of ``RK_WALK_BLOCK`` candidates begin, on how many
replica lanes are stacked, on the tier, or on whether the surviving
pairs are written out.  Each property below varies one of those and
requires equal bits; the last bounds the distance from the float sum.

Skipped wholesale when the host has no C compiler.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForceCalculator, MDParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.forcefield import ENERGY_CODEC, LJTable, PairWalkResult
from repro.kernels import available, get_suite, make_pair_spec
from repro.systems import build_water_box
from tests.properties.pair_walk_oracle import (
    candidates,
    encode,
    in_rows,
    oracle_pairs,
    oracle_sets,
    walk_tags,
)

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

CUTOFF = 4.0
#: ``RK_WALK_BLOCK`` in ``_kernels.c``: candidates per block of a row.
WALK_BLOCK = 256
QUANTUM = ENERGY_CODEC.resolution
FORCE_CODEC = ScaledFixed(FixedFormat(40), 8192.0)


@pytest.fixture(scope="module")
def suites():
    return get_suite("numpy"), get_suite("compiled", 1)


@pytest.fixture(scope="module")
def calc():
    system = build_water_box(n_molecules=24, seed=11)
    return ForceCalculator(system, MDParams(cutoff=CUTOFF, mesh=(16, 16, 16)))


def _spec(calc, lanes=1, lj=None):
    s = calc.system
    return make_pair_spec(
        calc.tables, lj or s.lj, np.tile(s.charges, lanes), np.tile(s.type_ids, lanes),
        FORCE_CODEC,
    )


def _walk(suite, spec, wrapped, row_ptr, partners, lengths, tags=None, sets=None):
    """``PairWalkResult`` of one walk at the codes of ``wrapped`` (and its
    force accumulator); with ``tags`` the walk also builds its home-box
    sets into ``sets``."""
    n = len(wrapped)
    acc = np.zeros((n, 3), dtype=np.int64)
    e_rows, counts = np.empty((n, 2), dtype=np.int64), np.empty(n, dtype=np.int64)
    tagged = () if tags is None else (tags, sets)
    codes = encode(wrapped, lengths)
    m = suite.pair_walk(spec, codes, row_ptr, partners, lengths, acc, e_rows, counts, *tagged)
    return PairWalkResult(e_rows, counts, m), acc


def _box(rng, calc, lanes=1):
    """Random wrapped coordinates for ``lanes`` stacked copies, a
    non-cubic box, and every pair ``i < j`` within a lane as candidates."""
    n = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0]) * rng.uniform(0.9, 1.3, 3)
    wrapped = rng.uniform(0, 1, (lanes * n, 3)) * lengths
    ii, jj = np.triu_indices(n, k=1)
    ii = np.concatenate([ii + r * n for r in range(lanes)]).astype(np.int64)
    jj = np.concatenate([jj + r * n for r in range(lanes)]).astype(np.int64)
    return wrapped, ii, jj, lengths


def _energies(result: PairWalkResult) -> np.ndarray:
    """The walk's decoded (LJ, Coulomb) total: every row summed, decoded once."""
    return ENERGY_CODEC.reconstruct(result.e_rows.sum(0))


def _assert_same(a: PairWalkResult, b: PairWalkResult, what: str):
    np.testing.assert_array_equal(a.e_rows, b.e_rows, err_msg=what)
    np.testing.assert_array_equal(a.counts, b.counts, err_msg=what)
    assert _energies(a).tobytes() == _energies(b).tobytes(), what


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_partner_order_within_a_row_is_invisible(suites, calc, seed):
    """Each row's partners shuffled: the same row codes on every tier
    and the same forces — the walk never relies on ascending ``j``."""
    rng = np.random.default_rng(seed)
    wrapped, ii, jj, lengths = _box(rng, calc)
    _, _, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    shuffled = partners.copy()
    for lo, hi in zip(row_ptr[:-1], row_ptr[1:]):
        rng.shuffle(shuffled[lo:hi])
    assert not np.array_equal(shuffled, partners)
    spec = _spec(calc)
    want, want_acc = _walk(suites[0], spec, wrapped, row_ptr, partners, lengths)
    assert want.n_pairs > 0
    for suite in suites:
        got, acc = _walk(suite, spec, wrapped, row_ptr, shuffled, lengths)
        _assert_same(got, want, f"{suite.tier}: shuffled rows")
        np.testing.assert_array_equal(acc, want_acc)


@pytest.mark.parametrize("lead", [0, 1, 37, WALK_BLOCK - 1, WALK_BLOCK, 300])
def test_where_a_row_splits_into_blocks_is_invisible(suites, calc, lead):
    """Rows of up to 400 survivors, so longer than one block, with their
    block boundaries moved: each row first lists ``lead`` partners that
    sit beyond the cutoff (the filter drops them), so its survivors fall
    into blocks at other offsets.  Every row code equals the row walked
    without the lead."""
    rng = np.random.default_rng(lead)
    lanes, near = 8, 401
    n = lanes * calc.system.n_atoms
    lengths = np.array([40.0, 40.0, 40.0])
    wrapped = np.empty((n, 3))
    # A 2 A cube: every pair of near atoms is inside the 4 A cutoff.
    wrapped[:near] = 5.0 + rng.uniform(0, 1, (near, 3)) * 2.0
    wrapped[near:] = 25.0 + rng.uniform(-3, 3, (n - near, 3))
    spec = _spec(calc, lanes)
    far = np.arange(near, n)
    none = np.empty(0, dtype=np.int64)
    plain = [np.arange(i + 1, near) if i < near else none for i in range(n)]
    padded = [np.concatenate([rng.choice(far, size=lead), r]) if len(r) else r for r in plain]
    assert max(len(r) for r in plain) == near - 1 > WALK_BLOCK

    def as_rows(rows):
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=row_ptr[1:])
        return row_ptr, np.concatenate(rows).astype(np.int32)

    want, _ = _walk(suites[0], spec, wrapped, *as_rows(plain), lengths)
    assert want.n_pairs == near * (near - 1) // 2
    for suite in suites:
        got, _ = _walk(suite, spec, wrapped, *as_rows(padded), lengths)
        _assert_same(got, want, f"{suite.tier}: lead {lead}")


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_lane_energies_of_eight_lanes_are_each_the_one_lane_walk(suites, calc, seed):
    """R = 8 stacked lanes walked at once: each lane's decoded energies
    (its block of rows, as the ensemble sums them) are its own R = 1
    walk's, bit for bit, on every tier."""
    rng = np.random.default_rng(seed)
    lanes, n = 8, calc.system.n_atoms
    wrapped, ii, jj, lengths = _box(rng, calc, lanes)
    _, _, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    solo_spec = _spec(calc)
    for suite in suites:
        stacked, _ = _walk(suite, _spec(calc, lanes), wrapped, row_ptr, partners, lengths)
        per_lane = ENERGY_CODEC.reconstruct(stacked.e_rows.reshape(lanes, n, 2).sum(1))
        for r in range(lanes):
            x = wrapped[r * n : (r + 1) * n]
            li, lj = ii[ii // n == r] - r * n, jj[ii // n == r] - r * n
            _, _, rp, pt = in_rows(li, lj, n)
            solo, _ = _walk(suite, solo_spec, x, rp, pt, lengths)
            assert per_lane[r].tobytes() == _energies(solo).tobytes()


@given(seed=st.integers(0, 2**31 - 1), n_cand=st.sampled_from([0, 1, 255, 256, 257, 2000]))
@settings(max_examples=30, deadline=None)
def test_tiers_and_pair_outputs_are_invisible(suites, calc, seed, n_cand):
    """Compiled and NumPy, each with the home-box sets built and without:
    four walks, one set of row codes and survivor counts, the oracle's
    pairs in walk order, and (where built) the oracle's sets."""
    rng = np.random.default_rng(seed)
    n = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0])
    wrapped = rng.uniform(0, 1, (n, 3)) * lengths
    ii, jj, row_ptr, partners = in_rows(*candidates(rng, n, 1, n_cand), n)
    spec = _spec(calc)
    nb, _ = oracle_pairs(spec, encode(wrapped, lengths), ii, jj, lengths)
    want, _ = _walk(suites[0], spec, wrapped, row_ptr, partners, lengths)
    assert want.n_pairs == nb.n_pairs
    np.testing.assert_array_equal(want.i, nb.i)
    tags = walk_tags(n)
    for suite in suites:
        for tagged in (None, tags):
            sets = np.full((2, n, 2), 7, dtype=np.uint64)
            got, _ = _walk(suite, spec, wrapped, row_ptr, partners, lengths, tagged, sets)
            _assert_same(got, want, f"{suite.tier}, sets built: {tagged is not None}")
            if tagged is not None:
                np.testing.assert_array_equal(sets, oracle_sets(nb, tags, n, 2))


def test_clipped_codes_and_wrapping_row_sums_agree_across_tiers(suites, calc):
    """Pairs whose energy sits on the codec's 2^62-quantum clip, two of
    them in one row so that its sum wraps int64: both tiers give the
    oracle's row codes.  No table of the force field reaches the clip
    (DESIGN.md, order-free energy lemma), so the LJ well depths are
    scaled up 2048-fold and three oxygens put within the tables' 1 A
    floor of each other."""
    rng = np.random.default_rng(3)
    wrapped, ii, jj, lengths = _box(rng, calc)
    s = calc.system
    o = np.flatnonzero(s.type_ids == s.type_ids[0])[:3]
    wrapped[o] = wrapped[o[0]] + np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
    _, _, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    spec = _spec(calc, lj=LJTable(s.lj.sigmas, s.lj.epsilons * 2048.0))
    nb, _ = oracle_pairs(spec, encode(wrapped, lengths), ii, jj, lengths)
    want = np.zeros((len(wrapped), 2), dtype=np.int64)
    with np.errstate(over="ignore"):
        for col, e in enumerate((nb.e_lj_pairs, nb.e_coul_pairs)):
            np.add.at(want[:, col], nb.i, ENERGY_CODEC.quantize_round_only(e))
    clipped = ENERGY_CODEC.quantize_round_only(nb.e_lj_pairs) == 2**62
    assert np.count_nonzero(clipped) == 3
    assert np.count_nonzero(clipped & (nb.i == o[0])) == 2
    assert want[o[0], 0] < 0  # the row's sum wrapped
    for suite in suites:
        got, _ = _walk(suite, spec, wrapped, row_ptr, partners, lengths)
        np.testing.assert_array_equal(got.e_rows, want, err_msg=suite.tier)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fixed_energies_are_within_half_a_quantum_per_pair_of_the_float_sum(
    suites, calc, seed
):
    """``|fixed - sum| <= m · quantum / 2`` for each of the two energies,
    against the exact sum of the per-pair floats (``math.fsum``) and
    against their ``np.sum``, the float path's total; every pair's code
    is off by at most half a quantum, and the integer sum adds none."""
    rng = np.random.default_rng(seed)
    wrapped, ii, jj, lengths = _box(rng, calc)
    _, _, row_ptr, partners = in_rows(ii, jj, len(wrapped))
    spec = _spec(calc)
    nb, _ = oracle_pairs(spec, encode(wrapped, lengths), ii, jj, lengths)
    m = nb.n_pairs
    assert m > 100
    for suite in suites:
        got, _ = _walk(suite, spec, wrapped, row_ptr, partners, lengths)
        for fixed, e in zip(_energies(got), (nb.e_lj_pairs, nb.e_coul_pairs)):
            assert abs(fixed - math.fsum(e)) <= m * QUANTUM / 2
            assert abs(fixed - float(np.sum(e))) <= m * QUANTUM / 2


def test_calculator_fixed_energies_track_its_float_energies(calc):
    """End to end on the calculator: ``compute_fixed``'s range-limited
    energies against ``compute``'s ``np.sum`` at one configuration."""
    x = calc.system.positions
    ref = calc.compute(x)
    _, rep = calc.compute_fixed(x, FORCE_CODEC)
    m = ref.n_pairs
    assert rep.n_pairs == m > 0
    for key in ("lj", "coulomb_real"):
        assert abs(rep.energies[key] - ref.energies[key]) <= m * QUANTUM / 2

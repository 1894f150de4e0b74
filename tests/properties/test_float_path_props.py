"""Property tests: the float64 force path on every suite == NumPy, bitwise.

``ForceCalculator.compute`` — what ``minimize_energy`` evaluates —
dispatches on the kernel suite like the fixed-point path does.  Each
piece is pinned here, on the NumPy suite and the compiled one, to the
NumPy expression it stands for:

* ``pair_rows`` to the minimum-image cutoff filter followed by
  :func:`nonbonded_real_space_tabulated`, on the adversarial sets of
  ``test_pair_walk_props.py`` (the compiled rows and walk share their
  table arithmetic in ``_kernels.c``; the oracle here is the
  force-field function itself);
* ``deposit_pairs_float`` to the two ``np.add.at`` calls, on indices
  repeated heavily enough that any other summation order shows;
* ``GaussianSplitEwald.kspace(kernels=, plan=)`` to ``kspace()``;
* the C SHAKE called aliased, ``shake(pos, pos)``, as the minimiser
  calls it.

Skipped wholesale when the host has no C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams
from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator
from repro.ewald import GaussianSplitEwald, GSEParams, MeshStencilPlan
from repro.forcefield import nonbonded_real_space_tabulated
from repro.geometry import Box, NeighborPairs, PositionCodec
from repro.kernels import available, get_suite, make_pair_spec
from repro.systems import build_solvated_protein, build_water_box
from tests.properties.pair_walk_oracle import candidates, divided_tables, in_rows, islands
from tests.properties.pair_walk_oracle import encode as encode_box
from tests.properties.test_mesh_fused_props import LENGTHS, MESH_CODEC, assert_same_bits
from tests.mesh_stencil import encode

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

CUTOFF = 4.0


@pytest.fixture(scope="module")
def suites():
    """NumPy, and compiled at one thread and four (the float kernels are
    serial at both)."""
    return get_suite("numpy"), get_suite("compiled", 1), get_suite("compiled", 4)


@pytest.fixture(scope="module")
def calc():
    system = build_water_box(n_molecules=24, seed=11)
    params = MDParams(cutoff=CUTOFF, mesh=(16, 16, 16))
    return ForceCalculator(system, params)


# -- pair rows ---------------------------------------------------------------


def numpy_rows(tables, system, blocks, codes, ii, jj, lengths):
    """The NumPy tier's float pair evaluation over explicit candidates."""
    dx = PositionCodec(Box(lengths)).displacement(codes[ii], codes[jj])
    r2 = np.sum(dx * dx, axis=1)
    keep = r2 < CUTOFF * CUTOFF
    pairs = NeighborPairs(i=ii[keep], j=jj[keep], dx=dx[keep], r2=r2[keep])
    return nonbonded_real_space_tabulated(
        pairs, np.tile(system.charges, blocks), np.tile(system.type_ids, blocks),
        system.lj, tables,
    )


def assert_rows_match(suites, calc, codes, ii, jj, lengths, blocks=1,
                      division_tables=False) -> int:
    """Every suite's ``pair_rows`` at the position codes ``codes`` equals
    the NumPy evaluation; pair count."""
    s = calc.system
    tables = divided_tables(calc.tables) if division_tables else calc.tables
    ii, jj, row_ptr, partners = in_rows(ii, jj, len(codes))
    want = numpy_rows(tables, s, blocks, codes, ii, jj, lengths)
    spec = make_pair_spec(
        tables, s.lj, np.tile(s.charges, blocks), np.tile(s.type_ids, blocks)
    )
    assert (spec.e_inv is None) == division_tables
    n = len(ii) + 3  # oversized, as the force calculator's scratch is
    for suite in suites:
        oi, oj = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        rows, e_lj, e_coul = np.empty((n, 3)), np.empty(n), np.empty(n)
        m = suite.pair_rows(spec, codes, row_ptr, partners, lengths, oi, oj, rows, e_lj, e_coul)
        assert m == want.n_pairs
        np.testing.assert_array_equal(oi[:m], want.i)
        np.testing.assert_array_equal(oj[:m], want.j)
        assert_same_bits(rows[:m], want.force)
        assert_same_bits(e_lj[:m], want.e_lj_pairs)
        assert_same_bits(e_coul[:m], want.e_coul_pairs)
    return want.n_pairs


@given(
    seed=st.integers(0, 2**31 - 1),
    n_cand=st.sampled_from([0, 1, 255, 256, 257, 700]),
    blocks=st.sampled_from([1, 3]),
    division_tables=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_rows_match_the_tabulated_kernel(suites, calc, seed, n_cand, blocks,
                                         division_tables):
    """Random geometry in a non-cubic box, every block-boundary count,
    stacked replica blocks, power-of-two and divided table layouts."""
    rng = np.random.default_rng(seed)
    n_atoms = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0]) * rng.uniform(0.9, 1.3, 3)
    wrapped = rng.uniform(0, 1, (blocks * n_atoms, 3)) * lengths
    wrapped[rng.integers(0, len(wrapped), 4), rng.integers(0, 3, 4)] = 0.0
    ii, jj = candidates(rng, n_atoms, blocks, n_cand)
    assert_rows_match(suites, calc, encode_box(wrapped, lengths), ii, jj, lengths, blocks,
                      division_tables)


@pytest.mark.parametrize("division_tables", [False, True], ids=["pow2", "divided"])
@pytest.mark.parametrize("n_cand", [0, 1, 255, 256, 257])
def test_rows_at_every_block_boundary_count(suites, calc, n_cand, division_tables):
    """The rows share the walk's staged table arithmetic: the same grid
    of candidate counts around one block, both offset forms."""
    rng = np.random.default_rng(n_cand)
    n_atoms = calc.system.n_atoms
    lengths = np.array([6.5, 9.25, 7.0])
    wrapped = rng.uniform(0, 1, (n_atoms, 3)) * lengths
    ii, jj = candidates(rng, n_atoms, 1, n_cand)
    assert_rows_match(suites, calc, encode_box(wrapped, lengths), ii, jj, lengths,
                      division_tables=division_tables)


def test_rows_through_blocks_without_a_survivor(suites, calc):
    """Whole blocks of candidates the filter empties, between blocks it
    does not: the rows after the gap land in the right slots."""
    rng = np.random.default_rng(9)
    blocks = 10
    codes, ii, jj, lengths = islands(rng, blocks * calc.system.n_atoms)
    assert assert_rows_match(suites, calc, codes, ii, jj, lengths, blocks) == 190


def test_rows_at_the_cutoff_and_the_table_end(suites, calc):
    """``r2 == cutoff2`` is out; one code inside is in, and so is the
    largest ``r2`` under ``cutoff2``, whose ``u`` is the ``umax`` clamp's
    own value — both at the far end of each layout's last segment; a pair
    at ``r2 == 0`` is in, under the tables' floor, and its row is a zero.
    The box is 4 cutoffs long in x and y, so ``2**38`` codes are the
    cutoff exactly."""
    lengths = np.array([4 * CUTOFF, 4 * CUTOFF, 9.5])
    q, nudge = 2**38, 741448  # (q - 1)² + nudge² codes² rounds to the float under 16 A²
    codes = np.zeros((calc.system.n_atoms, 3), dtype=np.int64)
    codes[:8] = [
        [1000, 1000, 1000], [1000 + q, 1000, 1000],   # r2 == cutoff2: dropped
        [2000, 0, 2000], [2000, q - 1, 2000],         # one code inside: kept
        [3000, 3000, 3000], [3000, 3000, 3000],       # r2 == 0: kept
        [5000, 0, 0], [5000 + q - 1, nudge, 0],       # u == umax: kept
    ]
    step = lengths * 2.0**-40
    inside, e = (q - 1) * step[0], nudge * step[1]
    assert (q * step[0]) ** 2 == CUTOFF * CUTOFF
    assert inside * inside / (CUTOFF * CUTOFF) < 1.0
    assert (inside * inside + e * e) / (CUTOFF * CUTOFF) == np.nextafter(1.0, 0.0)
    ii, jj = np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])
    for division_tables in (False, True):
        assert assert_rows_match(suites, calc, codes, ii, jj, lengths,
                                 division_tables=division_tables) == 3


@given(seed=st.integers(0, 2**31 - 1), pow2_box=st.booleans())
@settings(max_examples=25, deadline=None)
def test_rows_at_the_half_box(suites, calc, seed, pow2_box):
    """Code differences at ``±2**39`` and a few codes either side, and
    ``2**40 − 1``, per axis: both suites feed the rows the same ``dx``."""
    rng = np.random.default_rng(seed)
    lengths = np.array([4.0, 8.0, 2.0]) if pow2_box else rng.uniform(5.0, 7.9, 3)
    rows, ii, jj = [], [], []
    for axis in range(3):
        for d in (2**39, 2**39 + 1, 2**39 - 1, 2**40 - 1):
            for sign in (1, -1):
                a = rng.integers(0, 2**38, 3)
                b = np.maximum(a + rng.integers(-2**37, 2**37, 3), 0)
                a[axis], b[axis] = (d, 0) if sign > 0 else (0, d)
                ii.append(len(rows))
                jj.append(len(rows) + 1)
                rows += [a, b]
    blocks = -(-len(rows) // calc.system.n_atoms)
    codes = np.zeros((blocks * calc.system.n_atoms, 3), dtype=np.int64)
    codes[: len(rows)] = rows
    assert assert_rows_match(suites, calc, codes, np.array(ii), np.array(jj),
                             lengths, blocks) > 0


# -- ordered float deposit -----------------------------------------------------


def fused_deposit(forces, i, j, rows):
    """The fixed-point deposit's loop shape — one pass, ``+i`` and ``-j``
    per pair — which is a *different* float sum: the mutant the data
    below must tell from the real thing."""
    for k in range(len(i)):
        forces[i[k]] += rows[k]
        forces[j[k]] -= rows[k]


def _hot_pairs(rng, n_atoms, n_pairs):
    """Pairs over a handful of atoms, with rows spanning 12 decades, so
    nearly every add rounds and every atom is both an ``i`` and a ``j``."""
    hot = rng.choice(n_atoms, 5, replace=False)
    i = rng.choice(hot, n_pairs)
    j = rng.choice(hot, n_pairs)
    rows = rng.normal(0, 1, (n_pairs, 3)) * 10.0 ** rng.uniform(-6, 6, (n_pairs, 1))
    return i, j, rows


@given(seed=st.integers(0, 2**31 - 1), n_pairs=st.sampled_from([0, 1, 2, 64, 500]))
@settings(max_examples=40, deadline=None)
def test_deposit_is_the_two_add_at_calls(suites, seed, n_pairs):
    rng = np.random.default_rng(seed)
    n_atoms = 40
    i, j, rows = _hot_pairs(rng, n_atoms, n_pairs)
    start = rng.normal(0, 1, (n_atoms, 3))
    want = start.copy()
    np.add.at(want, i, rows)
    np.add.at(want, j, -rows)
    for suite in suites:
        got = start.copy()
        suite.deposit_pairs_float(got, i, j, rows)
        assert_same_bits(got, want)


def test_deposit_order_is_observable():
    """Mutation check: on this data the fused one-loop deposit differs
    from ``np.add.at`` twice, so the property above would catch a C
    deposit written in the fixed-point loop's shape."""
    rng = np.random.default_rng(7)
    n_atoms = 40
    i, j, rows = _hot_pairs(rng, n_atoms, 500)
    want = np.zeros((n_atoms, 3))
    np.add.at(want, i, rows)
    np.add.at(want, j, -rows)
    mutant = np.zeros((n_atoms, 3))
    fused_deposit(mutant, i, j, rows)
    assert not np.array_equal(mutant, want)
    got = np.zeros((n_atoms, 3))
    get_suite("compiled").deposit_pairs_float(got, i, j, rows)
    assert_same_bits(got, want)


def test_deposit_of_a_strided_view_falls_back(suites):
    """Rows C cannot take as they are go through NumPy — same result."""
    rng = np.random.default_rng(3)
    i, j, rows = _hot_pairs(rng, 40, 64)
    wide = np.zeros((64, 6))
    wide[:, ::2] = rows
    want = np.zeros((40, 3))
    get_suite("numpy").deposit_pairs_float(want, i, j, rows)
    got = np.zeros((40, 3))
    suites[1].deposit_pairs_float(got, i, j, wide[:, ::2])
    assert_same_bits(got, want)


# -- kspace on the suite --------------------------------------------------------


def make_radix2_gse() -> GaussianSplitEwald:
    """The mesh-kernel properties' evaluator (non-cubic box and mesh) on a
    mesh the radix-2 solve takes: h = (1.0, 0.375, 0.75), stencil 7 x 17 x 9."""
    params = GSEParams(sigma=2.0, sigma_s=0.9, mesh=(16, 32, 16), spreading_cutoff=3.0)
    gse = GaussianSplitEwald(Box(LENGTHS), params)
    assert tuple(2 * gse._offsets + 1) == (7, 17, 9)  # kx != ky != kz
    return gse


@pytest.mark.parametrize("codec", [None, MESH_CODEC], ids=["floatmesh", "qmesh40"])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
def test_kspace_on_the_suite_matches_kspace(suites, codec, n):
    """Energy and forces, float and 40-bit meshes, ``n`` either side of
    the 512-row kernel chunk (the float spread is chunk-sensitive), one
    plan reused across moved atoms — and through a plan the NumPy tier
    keeps as well."""
    rng = np.random.default_rng(n)
    gse = make_radix2_gse()
    q = rng.uniform(-1, 1, n)
    kept = {k: MeshStencilPlan(gse, n) for k in suites}
    for _move in range(3):
        pos = rng.uniform(-0.2, 1.2, (n, 3)) * LENGTHS
        e_want, f_want = gse.kspace(encode(gse, pos), q, codec=codec)
        for k, plan in kept.items():
            e, f = gse.kspace(encode(gse, pos), q, codec=codec, kernels=k, plan=plan)
            assert e == e_want
            assert_same_bits(f, f_want)


def test_kspace_replaces_a_plan_of_the_wrong_size(suites):
    """A kept plan that does not fit the call is not used, not trusted."""
    rng = np.random.default_rng(1)
    gse = make_radix2_gse()
    pos, q = rng.uniform(0, 1, (30, 3)) * LENGTHS, rng.uniform(-1, 1, 30)
    want = gse.kspace(encode(gse, pos), q)
    got = gse.kspace(encode(gse, pos), q, kernels=suites[1], plan=MeshStencilPlan(gse, 7))
    assert got[0] == want[0]
    assert_same_bits(got[1], want[1])


# -- aliased SHAKE ---------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: build_water_box(n_molecules=30, seed=5),
    lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3),
], ids=["water", "peptide"])
def test_aliased_shake_matches_numpy(suites, build):
    """``shake(pos, pos)`` — reference and target one array, as the
    minimiser's first projection passes them — compiled == NumPy, from
    the built geometry and from a perturbed one."""
    system = build()
    rng = np.random.default_rng(0)
    solvers = [
        ConstraintSolver(system.topology, system.masses, system.box, iterations=100, kernels=k)
        for k in suites
    ]
    for scale in (0.0, 0.05):
        start = system.positions + scale * rng.normal(0, 1, system.positions.shape)
        outs = []
        for solver in solvers:
            pos = start.copy()
            assert solver.shake(pos, pos) is pos
            outs.append(pos)
        for got in outs[1:]:
            assert_same_bits(got, outs[0])
        assert solvers[0].max_residual(outs[0]) < (1e-9 if scale == 0.0 else 1e-3)

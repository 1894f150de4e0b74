"""Property tests of the integer geometry: position codes against exact rationals.

Every cell and displacement the force path reads comes from the 40-bit
position codes (:mod:`repro.geometry.codes`, DESIGN.md "Integer
geometry").  Here each is checked against ``fractions.Fraction`` ground
truth — displacements of code pairs (the half-box tie and the mask edges
included), cells and in-cell offsets at rebuild, mesh and node-grid
sizes, and the ``encode∘decode`` round trip — and the compiled kernels'
forms (``rk_disp``, ``rk_cell``) against the NumPy suite's on the same
edge codes: the rebuild's rows under every sweep shape, and the float
walk's force rows, bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams
from repro.core.forces import ForceCalculator
from repro.geometry import Box, PositionCodec
from repro.geometry.codes import POSITION_BITS, cell_fractions, cells
from repro.geometry.neighborlist import pairs_to_rows
from repro.kernels import available, get_suite, make_pair_spec
from repro.kernels.suite import _ptr
from repro.systems import build_water_box

TOP = 2**POSITION_BITS - 1
HALF = 2**(POSITION_BITS - 1)
#: The mask edges and the half-box codes.
EDGES = (0, 1, HALF - 1, HALF, HALF + 1, TOP)

codes_st = st.one_of(st.sampled_from(EDGES), st.integers(0, TOP))
lengths_st = st.tuples(*[st.floats(0.5, 500.0, allow_nan=False)] * 3)


def exact_displacement(ci: int, cj: int, L: float) -> float:
    """``x_i − x_j`` of the exact coordinates ``c·L / 2**40``, imaged into
    ``[−L/2, L/2)``, rounded once."""
    d = (ci - cj) % 2**POSITION_BITS
    if d >= HALF:
        d -= 2**POSITION_BITS
    return float(Fraction(d) * Fraction(L) / 2**POSITION_BITS)


@given(ci=st.lists(codes_st, min_size=3, max_size=3),
       cj=st.lists(codes_st, min_size=3, max_size=3), lengths=lengths_st)
@settings(max_examples=300, deadline=None)
def test_displacement_is_the_exact_minimum_image_rounded_once(ci, cj, lengths):
    codec = PositionCodec(Box(np.array(lengths)))
    got = codec.displacement(np.array([ci]), np.array([cj]))[0]
    want = [exact_displacement(a, b, L) for a, b, L in zip(ci, cj, lengths)]
    assert got.tolist() == want


def test_the_half_box_tie_and_the_mask_edges():
    """``±2**39`` is the tie: both signs give ``−L/2``; ``2**40 − 1`` is
    one code below ``0``, not a box away."""
    codec = PositionCodec(Box(np.array([8.0, 6.0, 3.0])))
    pairs = np.array([[HALF, 0], [0, HALF], [TOP, 0], [0, TOP], [HALF - 1, 0], [0, HALF + 1]])
    got = codec.displacement(
        np.repeat(pairs[:, :1], 3, axis=1), np.repeat(pairs[:, 1:], 3, axis=1)
    )
    step = codec.step
    want = np.array([-HALF, -HALF, -1, 1, HALF - 1, HALF - 1])[:, None] * step
    np.testing.assert_array_equal(got, want)
    assert got[0, 0] == -4.0 and got[2, 0] == -8.0 * 2.0**-40


#: Cell counts: a rebuild's (any integer up to the binning caps), a mesh's
#: (powers of two) and a node grid's axis (powers of two up to 32).
SIZES = st.one_of(st.integers(1, 400), st.sampled_from([4, 8, 16, 32, 64, 128, 256]),
                  st.sampled_from([1, 2, 4, 8, 16, 32]), st.just(2**23 - 1))


@given(c=st.lists(codes_st, min_size=1, max_size=40), m=SIZES)
@settings(max_examples=300, deadline=None)
def test_cells_and_offsets_are_exact(c, m):
    """``cells`` is ``floor(c·m / 2**40)`` and the offset ``c·m / 2**40 −
    cell``, both exact: the cell of the exact coordinate on ``m`` cells."""
    codes = np.array(c, dtype=np.int64)
    base, frac = cell_fractions(codes, m)
    np.testing.assert_array_equal(cells(codes, m), base)
    for k, code in enumerate(c):
        x = Fraction(code * m, 2**POSITION_BITS)
        assert 0 <= base[k] < m and base[k] == x.numerator // x.denominator
        assert Fraction(frac[k]) == x - base[k]


@given(c=st.lists(st.lists(codes_st, min_size=3, max_size=3), min_size=1, max_size=40),
       lengths=lengths_st)
@settings(max_examples=300, deadline=None)
def test_encode_decode_is_the_identity(c, lengths):
    """The round-trip lemma: at 40 bits every code decodes to a double that
    encodes back to it, in any box."""
    codec = PositionCodec(Box(np.array(lengths)))
    codes = np.array(c, dtype=np.int64)
    decoded = codec.decode(codes)
    assert np.all((decoded >= 0.0) & (decoded < codec.box.lengths))
    np.testing.assert_array_equal(codec.encode(decoded), codes)


# -- the compiled forms on the same codes ------------------------------------

compiled_only = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)


def edge_codes(rng, n_random=40) -> np.ndarray:
    """Every combination of the edge codes per axis, plus random codes."""
    grid = np.stack(np.meshgrid(*[np.array(EDGES)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return np.concatenate([grid, rng.integers(0, TOP, (n_random, 3), endpoint=True)])


@compiled_only
@pytest.mark.parametrize("lengths", [(6.0, 7.5, 9.0), (8.0, 8.0, 8.0)])
def test_the_rebuild_reads_the_same_geometry_on_both_suites(lengths):
    """Atoms on the mask edges and the half-box codes, in a box whose reach
    is a third of it: the compiled rebuild (its cells ``rk_cell``, its
    displacements ``rk_disp``) lists the NumPy suite's rows under every
    sweep shape."""
    lengths = np.array(lengths)
    codes = edge_codes(np.random.default_rng(1), n_random=400)
    n, reach = len(codes), float(lengths.min()) / 3
    want_ptr, want = get_suite("numpy").neighbor_build(codes, lengths, reach, 1, n, None, [])
    assert 0 < want_ptr[-1] < n * (n - 1) // 2
    lib = get_suite("compiled")._lib
    work = np.empty(int(lib.rk_neighbor_work_size(n)), dtype=np.int64)
    for shape in range(-1, 8):
        row_ptr = np.empty(n + 1, dtype=np.int64)
        partners = np.empty(n * n // 2, dtype=np.int32)
        at = np.zeros(2, dtype=np.int64)
        assert lib.rk_neighbor_build(
            1, n, _ptr(codes), _ptr(lengths), reach, None, None, _ptr(work),
            _ptr(row_ptr), _ptr(partners), len(partners), _ptr(at), shape,
        ) == 0
        np.testing.assert_array_equal(row_ptr, want_ptr, err_msg=f"shape {shape}")
        np.testing.assert_array_equal(partners[: at[1]], want, err_msg=f"shape {shape}")


@compiled_only
def test_the_walk_reads_the_same_geometry_on_both_suites():
    """Every pair of the edge codes through ``pair_rows``: the force rows
    carry ``dx``, and both suites give the same bits (signs of zero
    included)."""
    calc = ForceCalculator(build_water_box(n_molecules=24, seed=2), MDParams(cutoff=4.0))
    s = calc.system
    codes = edge_codes(np.random.default_rng(2))
    n = len(codes)
    spec = make_pair_spec(calc.tables, s.lj, np.resize(s.charges, n), np.resize(s.type_ids, n))
    ii, jj = np.triu_indices(n, k=1)
    row_ptr, partners = pairs_to_rows(ii, jj, n)
    lengths = np.array([5.0, 6.0, 7.5])
    outs = []
    for suite in (get_suite("numpy"), get_suite("compiled")):
        m = len(ii)
        out = (np.empty(m, np.int64), np.empty(m, np.int64), np.empty((m, 3)),
               np.empty(m), np.empty(m))
        outs.append((suite.pair_rows(spec, codes, row_ptr, partners, lengths, *out), out))
    (m_numpy, want), (m_compiled, got) = outs
    assert m_numpy == m_compiled > 0
    for x, y in zip(got, want):
        np.testing.assert_array_equal(x[:m_numpy].view(np.int64), y[:m_numpy].view(np.int64))

"""Property test: one layout rule for the compiled pair and mesh wrappers.

``pair_walk``, ``pair_rows`` and the three
``mesh_*_axes`` primitives hand raw pointers to C.  Each compiled
wrapper checks every array against the layout C walks; an array that
does not conform — a strided view, another dtype — runs the inherited
NumPy form, and one that does (outputs sized exactly to the work) runs
C.  Either way the result is ``NUMPY_SUITE``'s, byte for byte: return
value and every output array.

Skipped wholesale when the host has no C compiler.
"""

import numpy as np
import pytest

from repro.core import ForceCalculator, MDParams
from repro.ewald import GaussianSplitEwald, GSEParams
from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import Box, PositionCodec
from repro.geometry.neighborlist import pairs_to_rows
from repro.kernels import NUMPY_SUITE, available, get_suite, make_pair_spec
from repro.kernels.suite import NumpyKernels
from repro.systems import build_water_box
from tests.mesh_stencil import encode

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

VARIANTS = ("strided", "dtype", "exact")


def strided(a: np.ndarray) -> np.ndarray:
    """``a``'s values as a non-contiguous view."""
    return np.stack([a, a], axis=-1)[..., 0]


def empty(shape, dtype, variant):
    """Output scratch: a strided view for ``strided``, dense otherwise."""
    out = np.zeros(shape, dtype)
    return strided(out) if variant == "strided" else out


@pytest.fixture(scope="module")
def pair_case():
    """A water box, its spec and every candidate pair i < j, as rows."""
    system = build_water_box(n_molecules=24, seed=3)
    calc = ForceCalculator(system, MDParams(cutoff=4.0, mesh=(16, 16, 16)))
    spec = make_pair_spec(
        calc.tables, system.lj, system.charges, system.type_ids,
        ScaledFixed(FixedFormat(62), 2.0**10),
    )
    codes = PositionCodec(system.box).encode(system.positions)
    ii, jj = np.triu_indices(system.n_atoms, k=1)
    row_ptr, partners = pairs_to_rows(ii, jj, system.n_atoms)
    return spec, codes, row_ptr, partners, system.box.lengths.copy()


def pair_args(case, name, variant):
    spec, codes, row_ptr, partners, lengths = case
    n, n_atoms = len(partners), len(codes)
    if variant == "strided":
        codes, row_ptr, partners = strided(codes), strided(row_ptr), strided(partners)
    elif variant == "dtype":
        row_ptr, partners = row_ptr.astype(np.int32), partners.astype(np.int64)
    pairs = (codes, row_ptr, partners, lengths)
    if name == "pair_walk":
        acc = np.arange(n_atoms * 3, dtype=np.int64).reshape(n_atoms, 3)
        rows = (empty((n_atoms, 2), np.int64, variant), empty(n_atoms, np.int64, variant))
        # Home-box tags over two-word sets.
        tags = np.arange(n_atoms, dtype=np.int32 if variant == "dtype" else np.int64) % 128
        tagged = (strided(tags) if variant == "strided" else tags,
                  empty((2, n_atoms, 2), np.uint64, variant))
        return (spec, *pairs, strided(acc) if variant == "strided" else acc, *rows, *tagged)
    ints = [empty(n, np.int64, variant) for _ in "ij"]
    energies = [empty(n, np.float64, variant) for _ in "lc"]
    return (spec, *pairs, *ints, empty((n, 3), np.float64, variant), *energies)


@pytest.fixture(scope="module")
def mesh_case():
    """A non-cubic stencil plan over 30 atoms, charges and a potential."""
    rng = np.random.default_rng(7)
    params = GSEParams(sigma=2.0, sigma_s=0.9, mesh=(16, 32, 16), spreading_cutoff=3.0)
    lengths = np.array([16.0, 16.0, 12.0])
    gse = GaussianSplitEwald(Box(lengths), params)
    plan = gse.make_plan(encode(gse, rng.uniform(0, 1, (30, 3)) * lengths))
    q = rng.uniform(-1, 1, 30)
    return plan, q, rng.normal(0, 1, gse.mesh_point_count())


def mesh_args(case, name, variant):
    plan, q, phi = case
    w, d, i, mesh, c2 = plan._axes()
    npts = int(np.prod(mesh))
    if variant == "strided":
        w, d, i = ([strided(a) for a in rows] for rows in (w, d, i))
    elif variant == "dtype":
        i = [a.astype(np.int64) for a in i]
    rows = (list(w), list(d), list(i), mesh, c2)
    if name == "mesh_spread_axes":
        acc = np.arange(npts, dtype=np.int64)
        return (strided(acc) if variant == "strided" else acc, *rows, q * 2.0**30)
    if name == "mesh_spread_float_axes":
        return (empty(npts, np.float64, variant), *rows, q, 7)
    return (empty((25, 3), np.float64, variant), *rows, phi, 3, 28)


CASES = {
    "pair_walk": pair_args, "pair_rows": pair_args,
    "mesh_spread_axes": mesh_args, "mesh_spread_float_axes": mesh_args,
    "mesh_gather_axes": mesh_args,
}


def arrays(args):
    return [a for a in args if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_non_conforming_arrays_run_the_numpy_form(name, variant, request, monkeypatch):
    build = CASES[name]
    case = request.getfixturevalue("pair_case" if build is pair_args else "mesh_case")
    want_args = build(case, name, variant)
    want = getattr(NUMPY_SUITE, name)(*want_args)
    if variant == "exact":
        # A conforming call must not fall back: that would cost speed, not bits.
        def refuse(*args):
            raise AssertionError(f"{name}: conforming arrays ran the NumPy form")

        monkeypatch.setattr(NumpyKernels, name, refuse)
    got_args = build(case, name, variant)
    got = getattr(get_suite("compiled", 1), name)(*got_args)
    assert got == want
    for g, w in zip(arrays(got_args), arrays(want_args), strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(
            np.ascontiguousarray(g).view(np.uint8), np.ascontiguousarray(w).view(np.uint8)
        )

"""Property-based tests: compiled kernel tier == NumPy tier, bitwise.

The compiled tier's entire contract is that it is *invisible in the
bits*: every C kernel replicates its NumPy expression operation for
operation (same association order, same rounding, int64 accumulation
through uint64 so overflow wraps identically).  These properties drive
randomized inputs — including overflow-scale codes and cutoff-edge
distances — through both tiers and require exact array equality.

Skipped wholesale when the host has no C compiler; the NumPy tier is
the reference and needs no self-test here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams, minimize_energy
from repro.kernels import available, get_suite, make_pair_spec
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.mesh_stencil import encode, stencil
from tests.properties.pair_walk_oracle import assert_walk_matches
from tests.properties.pair_walk_oracle import encode as encode_box

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)


@pytest.fixture(scope="module")
def tiers():
    return get_suite("numpy"), get_suite("compiled")


@pytest.fixture(scope="module")
def table_machine():
    """A small tabulated-kernel machine supplying real tables/codecs."""
    params = MDParams(cutoff=4.0, mesh=(32, 32, 32), long_range_every=2)
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, params, max_steps=20)
    system.initialize_velocities(300.0, seed=12)
    machine = AntonMachine(
        system.copy(), params, n_nodes=8, dt=1.0, backend="vectorized",
        kernel_tier="numpy",
    )
    yield machine
    machine.close()


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_deposit_pairs_bitwise(tiers, seed, n):
    """Newton-pair deposit (+codes at i, -codes at j), identical bits."""
    numpy_k, compiled_k = tiers
    rng = np.random.default_rng(seed)
    n_atoms = 50
    i = rng.integers(0, n_atoms, n)
    j = rng.integers(0, n_atoms, n)
    codes = rng.integers(-(2**62), 2**62, (n, 3))
    a = rng.integers(-(2**60), 2**60, (n_atoms, 3))
    b = a.copy()
    numpy_k.deposit_pairs(a, i, j, codes)
    compiled_k.deposit_pairs(b, i, j, codes)
    np.testing.assert_array_equal(a, b)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 400))
@settings(max_examples=30, deadline=None)
def test_pair_walk_tables_bitwise(tiers, table_machine, seed, n):
    """The tabulated force/energy/quantize arithmetic of every tier.

    Both tiers' ``pair_walk`` against the oracle — minimum-image filter,
    :func:`~repro.forcefield.nonbonded_real_space_tabulated`, the
    codec, ``np.add.at`` — on random pair geometries in the machine's
    own box, including ``r2 == 0`` and pairs within a code of the cutoff:
    identical accumulator, survivor list, survivor counts and
    per-row energy codes (``test_pair_walk_props`` holds the adversarial
    cases).
    """
    calc = table_machine.calc
    s = calc.system
    codec = table_machine.fixed_config.force_codec()
    spec = make_pair_spec(calc.tables, s.lj, s.charges, s.type_ids, codec)
    rng = np.random.default_rng(seed)
    cutoff = float(calc.tables.cutoff)
    lengths = np.ascontiguousarray(s.box.lengths, dtype=np.float64)
    wrapped = rng.uniform(0, 1, (s.n_atoms, 3)) * lengths
    # Force some edge distances into the batch.
    wrapped[1] = wrapped[0]
    wrapped[2:4] = [[1.0, 1.0, 1.0], [1.0 + cutoff, 1.0, 1.0]]
    wrapped[4:6] = [[2.0, 0.0, 2.0], [2.0, np.nextafter(cutoff, 0.0), 2.0]]
    i = rng.integers(0, s.n_atoms, n)
    j = rng.integers(0, s.n_atoms, n)
    i[:3], j[:3] = [0, 2, 4][:n], [1, 3, 5][:n]
    acc = rng.integers(-(2**62), 2**62, (s.n_atoms, 3))
    assert_walk_matches(tiers, spec, encode_box(wrapped, lengths), i, j, lengths, acc)


@pytest.mark.parametrize("kernel", ["deposit_pairs"])
def test_deposit_into_a_strided_accumulator_and_short_codes(tiers, kernel):
    """An accumulator C cannot write as it is — the ``(10, 3)`` view
    ``big[:, :3]`` of a ``(10, 6)`` array — gets the NumPy tier's
    elements on every tier and nothing outside the view changes; index
    and code arrays of different lengths are a ``ValueError`` on every
    tier, never a read past the end of the shorter one."""
    rng = np.random.default_rng(11)
    n = 64
    i = rng.integers(0, 10, n)
    j = rng.integers(0, 10, n)
    codes = rng.integers(-(2**62), 2**62, (n, 3))
    base = rng.integers(-(2**60), 2**60, (10, 6))
    got = []
    for k in tiers:
        big = base.copy()
        getattr(k, kernel)(big[:, :3], i, j, codes)
        got.append(big)
    np.testing.assert_array_equal(got[1], got[0])
    np.testing.assert_array_equal(got[0][:, 3:], base[:, 3:])
    assert not np.array_equal(got[0][:, :3], base[:, :3])
    for k in tiers:
        for bad in [(i, j, codes[:-1]), (i, j[:-1], codes)]:
            with pytest.raises(ValueError):
                getattr(k, kernel)(np.zeros((10, 3), dtype=np.int64), *bad)


@pytest.mark.parametrize("layout", ["int32", "strided"])
def test_deposit_pairs_float_with_converted_indices(tiers, layout):
    """Index arrays C cannot read as they are — int32, or every second
    element of an int64 array — are converted to int64 for the call, and
    the copies must outlive it: the same bits as the NumPy tier.  Each
    copy is 128 KiB, past NumPy's small-block cache, so one freed before
    C reads it is a use-after-free that the sanitizer build reports."""
    rng = np.random.default_rng(17)
    n, n_atoms = 16384, 300
    i = rng.integers(0, n_atoms, 2 * n)
    j = rng.integers(0, n_atoms, 2 * n)
    if layout == "int32":
        i, j = i[:n].astype(np.int32), j[:n].astype(np.int32)
    else:
        i, j = i[::2], j[::2]
    rows = rng.normal(0.0, 1.0, (n, 3))
    base = rng.normal(0.0, 1.0, (n_atoms, 3))
    got = []
    for k in tiers:
        forces = base.copy()
        k.deposit_pairs_float(forces, i, j, rows)
        got.append(forces)
    np.testing.assert_array_equal(got[1].view(np.int64), got[0].view(np.int64))
    assert not np.array_equal(got[0], base)


def _small_gse():
    from repro.ewald.gse import GSEParams, GaussianSplitEwald
    from repro.geometry import Box

    box = Box(np.array([17.0, 17.0, 17.0]))
    return GaussianSplitEwald(box, GSEParams.choose(box, 4.0, (32, 32, 32)))


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_mesh_spread_bitwise(tiers, seed, n):
    """Fused stencil scatter from axis rows: rint(w*qc) int64 deposit, same bits."""
    _, compiled_k = tiers
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    plan = gse.make_plan(encode(gse, rng.uniform(-5.0, 22.0, (n, 3))))
    qc = rng.uniform(-1e6, 1e6, n) * 2.0 ** rng.integers(0, 24)
    a = rng.integers(-(2**40), 2**40, gse.mesh_point_count())
    b = a.copy()
    w, flat = stencil(plan)
    np.add.at(a, flat.ravel(), np.rint(w * qc[:, None]).astype(np.int64).ravel())
    compiled_k.mesh_spread_axes(b, *plan._axes(), qc)
    np.testing.assert_array_equal(a, b)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_mesh_plan_build_bitwise(tiers, seed):
    """Stencil-plan rows drive both tiers' kernels to the same mesh: the
    compiled quantized spread deposits exactly where, and exactly what,
    the NumPy suite's stencil block says."""
    numpy_k, compiled_k = tiers
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    plan = gse.make_plan(encode(gse, rng.uniform(-5.0, 22.0, (40, 3))))  # wrap() handles out-of-box
    w, flat = stencil(plan)
    assert flat.min() >= 0 and flat.max() < gse.mesh_point_count()
    qc = rng.uniform(-1e6, 1e6, 40)
    want = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    np.add.at(want, flat.ravel(), np.rint(w * qc[:, None]).astype(np.int64).ravel())
    for k in (numpy_k, compiled_k):
        got = np.zeros_like(want)
        k.mesh_spread_axes(got, *plan._axes(), qc)
        np.testing.assert_array_equal(got, want)

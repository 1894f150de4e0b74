"""Property-based tests: threaded kernels == single-thread == NumPy, bitwise.

The thread-count knob's contract is stronger than "same answer": it is
*invisible in the bits* for every thread count.  Two mechanisms carry
that contract, and both are asserted here rather than assumed:

* Fixed-point accumulation — per-thread int64 partials folded with
  wrapping adds.  Int64 wrap is associative and commutative, so the
  fold order cannot change the result; ``test_wrapping_add_order_free``
  pins that algebraic fact directly (including at the accumulator
  extremes) instead of trusting it.
* Disjoint-output chunking — pair tables and the fused mesh gather
  write each output row from exactly one lane, so any partition equals
  the serial loop.

Every threaded primitive is driven with inputs sized past its dispatch
threshold (small inputs fall back to the serial path by design, which
would make the comparison vacuous) and compared for exact equality
against both the single-thread compiled suite and the NumPy reference.

Skipped wholesale when the host has no C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams, minimize_energy
from repro.kernels import available, get_suite, make_pair_spec
from repro.kernels.build import load
from repro.kernels.suite import _MT_MIN_PAIRS, CompiledKernels
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.properties.pair_walk_oracle import assert_walk_matches

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

I64 = np.iinfo(np.int64)

#: Thread counts exercised everywhere; 2 and 8 are the bench sweep
#: points, 5 is deliberately coprime with typical input sizes so chunk
#: boundaries land at awkward offsets.
THREADS = (2, 5, 8)


@pytest.fixture(scope="module")
def suites():
    """(numpy, compiled-T1, {T: compiled-T}) with a shared serial base."""
    base = CompiledKernels(load())
    threaded = {t: CompiledKernels(load(), threads=t, serial=base) for t in THREADS}
    return get_suite("numpy"), base, threaded


@pytest.fixture(scope="module")
def table_machine():
    """A small tabulated-kernel machine supplying real tables/codecs."""
    params = MDParams(
        cutoff=4.0, mesh=(32, 32, 32), kernel_mode="table",
        long_range_every=2, quantize_mesh_bits=40,
    )
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, params, max_steps=20)
    system.initialize_velocities(300.0, seed=12)
    machine = AntonMachine(
        system.copy(), params, n_nodes=8, dt=1.0, backend="vectorized",
        kernel_tier="numpy",
    )
    yield machine
    machine.close()


# -- the algebraic foundation, asserted not assumed -----------------------


@given(seed=st.integers(0, 2**31 - 1), nparts=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_wrapping_add_order_free(seed, nparts):
    """Folding int64 partials wraps to the same bits in ANY order.

    This is the exact reduction the C pool runs (per-lane partials,
    wrapping adds), exercised at accumulator extremes where non-wrapping
    arithmetic would overflow and order-dependent schemes would differ.
    """
    rng = np.random.default_rng(seed)
    parts = rng.integers(I64.min, I64.max, (nparts, 32), dtype=np.int64)
    # Salt with exact extremes so the fold genuinely wraps.
    parts[rng.integers(0, nparts), :] = I64.max
    parts[rng.integers(0, nparts), :] = I64.min
    with np.errstate(over="ignore"):
        ref = parts[0].copy()
        for t in range(1, nparts):
            ref += parts[t]
        for _ in range(4):
            order = rng.permutation(nparts)
            out = parts[order[0]].copy()
            for t in order[1:]:
                out += parts[t]
            np.testing.assert_array_equal(out, ref)


# -- per-thread partial reductions ----------------------------------------


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_deposit_pairs_threaded_bitwise(suites, seed):
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    n_atoms = 50
    n = int(rng.integers(n_atoms, 3000))  # past the 6n >= 4*nelem gate
    i = rng.integers(0, n_atoms, n)
    j = rng.integers(0, n_atoms, n)
    codes = rng.integers(-(2**62), 2**62, (n, 3))
    base = rng.integers(-(2**60), 2**60, (n_atoms, 3))
    want = base.copy()
    numpy_k.deposit_pairs(want, i, j, codes)
    for k in (one, *threaded.values()):
        got = base.copy()
        k.deposit_pairs(got, i, j, codes)
        np.testing.assert_array_equal(got, want)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_scatter_rows_threaded_bitwise(suites, seed):
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    n_atoms = 40
    n = int(rng.integers(n_atoms, 2500))
    idx = rng.integers(0, n_atoms, n)
    codes = rng.integers(-(2**62), 2**62, (n, 3))
    base = rng.integers(-(2**60), 2**60, (n_atoms, 3))
    want = base.copy()
    numpy_k.scatter_rows(want, idx, codes)
    for k in (one, *threaded.values()):
        got = base.copy()
        k.scatter_rows(got, idx, codes)
        np.testing.assert_array_equal(got, want)


def _small_gse():
    from repro.ewald.gse import GSEParams, GaussianSplitEwald
    from repro.geometry import Box

    box = Box(np.array([17.0, 17.0, 17.0]))
    return GaussianSplitEwald(box, GSEParams.choose(box, 4.0, (32, 32, 32)))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mesh_spread_threaded_bitwise(suites, seed):
    """Fused spread through the per-lane partial meshes and their reduce."""
    _, one, threaded = suites
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    npts, k_sten = gse.mesh_point_count(), gse.stencil_size()
    n = int(rng.integers(4 * npts // k_sten + 1, 200))  # past n*k >= 4*npts
    plan = gse.make_plan(rng.uniform(0.0, 17.0, (n, 3)))  # NumPy: with cubes
    qc = rng.uniform(-1e6, 1e6, n)
    base = rng.integers(-(2**40), 2**40, npts)
    want = base.copy()
    codes = np.rint(plan.w.reshape(n, -1) * qc[:, None]).astype(np.int64)
    np.add.at(want, plan.flat.ravel(), codes.ravel())
    for k in (one, *threaded.values()):
        got = base.copy()
        k.mesh_spread_axes(got, *plan._axes(), qc)
        np.testing.assert_array_equal(got, want)


# -- chunked compaction and disjoint-output chunking ----------------------


@given(seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(["mixed", "none", "all"]))
@settings(max_examples=25, deadline=None)
def test_pair_filter_threaded_bitwise(suites, seed, mode):
    """Chunk-compacted survivors equal the serial scan in content AND order.

    `mode` drives the keep pattern to the adversarial ends (everything
    kept / nothing kept) where compaction boundary bugs would live.
    """
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    n_atoms = 60
    n_cand = int(rng.integers(_MT_MIN_PAIRS, 3 * _MT_MIN_PAIRS))
    L = np.array([11.0, 13.0, 9.5])
    wrapped = rng.uniform(0, 1, (n_atoms, 3)) * L
    ii = rng.integers(0, n_atoms, n_cand)
    jj = rng.integers(0, n_atoms, n_cand)
    if mode == "none":
        cutoff2 = 1e-12  # nothing survives
    elif mode == "all":
        cutoff2 = 1e4  # everything survives
    else:
        cutoff2 = 4.0**2
    results = []
    for k in (numpy_k, one, *threaded.values()):
        oi = np.empty(n_cand, dtype=np.int64)
        oj = np.empty(n_cand, dtype=np.int64)
        odx = np.empty((n_cand, 3))
        or2 = np.empty(n_cand)
        m = k.pair_filter(wrapped, ii, jj, L, cutoff2, oi, oj, odx, or2)
        results.append((m, oi[:m].copy(), oj[:m].copy(), odx[:m].copy(), or2[:m].copy()))
    want = results[0]
    for got in results[1:]:
        assert got[0] == want[0]
        for x, y in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(x, y)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_pair_table_codes_threaded_bitwise(suites, table_machine, seed):
    """The table arithmetic under every thread count, incl. cutoff-edge r2.

    It runs inside ``pair_walk``, which is one serial walk whatever
    ``threads`` says: every suite must return the NumPy passes' bytes on
    a candidate list long enough that a threaded twin would have split it.
    """
    _, one, threaded = suites
    calc = table_machine.calc
    s = calc.system
    codec = table_machine.fixed_config.force_codec()
    spec = make_pair_spec(calc.tables, s.lj, s.charges, s.type_ids, codec)
    rng = np.random.default_rng(seed)
    cutoff = float(calc.tables.cutoff)
    n = int(rng.integers(_MT_MIN_PAIRS, 2 * _MT_MIN_PAIRS))
    lengths = np.ascontiguousarray(s.box.lengths, dtype=np.float64)
    wrapped = rng.uniform(0, 1, (s.n_atoms, 3)) * lengths
    wrapped[1] = wrapped[0]
    wrapped[2:4] = [[0.0, 1.0, 1.0], [np.nextafter(cutoff, 0.0), 1.0, 1.0]]
    i = rng.integers(0, s.n_atoms, n)
    j = rng.integers(0, s.n_atoms, n)
    i[:2], j[:2] = [0, 2], [1, 3]
    acc = rng.integers(-(2**62), 2**62, (s.n_atoms, 3))
    assert_walk_matches([one, *threaded.values()], spec, wrapped, i, j, lengths, acc)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_mesh_plan_build_threaded_bitwise(suites, seed):
    """Axis rows, and the cubes materialised from them on demand, are the
    NumPy tier's under every thread count."""
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    pos = rng.uniform(-5.0, 22.0, (64, 3))
    want = gse.make_plan(pos, kernels=numpy_k)
    for k in (one, *threaded.values()):
        got = gse.make_plan(pos, kernels=k)
        np.testing.assert_array_equal(got.w, want.w)
        np.testing.assert_array_equal(got.flat, want.flat)
        for a, b in zip(got.axis_d, want.axis_d):
            np.testing.assert_array_equal(a, b)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_interpolate_forces_threaded_bitwise(suites, seed):
    """Row-partitioned fused gather == the NumPy cube sweep, any thread count."""
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    n = int(rng.integers(17, 120))
    pos = rng.uniform(0.0, 17.0, (n, 3))
    charges = rng.normal(0, 1, n)
    phi = rng.normal(0, 1, tuple(int(m) for m in gse.mesh))
    plan = gse.make_plan(pos, kernels=one)
    want = plan.interpolate_forces(charges, phi)
    for k in (one, *threaded.values()):
        got = plan.interpolate_forces(charges, phi, kernels=k)
        np.testing.assert_array_equal(got, want)


@given(seed=st.integers(0, 2**31 - 1), nrep=st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_shake_rattle_batch_threaded_bitwise(suites, table_machine, seed, nrep):
    """Replica-parallel SHAKE/RATTLE == per-replica solo sweeps.

    Each replica block gets its own lane and its own convergence exit;
    a converged replica absorbing extra sweeps would change bits.
    """
    from repro.core.constraints import ConstraintSolver

    numpy_k, one, threaded = suites
    s = table_machine.calc.system
    solver = ConstraintSolver(s.topology, s.masses, s.box)
    rng = np.random.default_rng(seed)
    n = s.n_atoms
    ref = np.tile(s.positions, (nrep, 1))
    pos0 = ref + rng.normal(0, 0.05, ref.shape)
    vel0 = rng.normal(0, 0.1, ref.shape)
    want_pos = pos0.copy()
    numpy_k.shake_batch(solver, want_pos, ref, 1e-10, nrep, n)
    want_vel = vel0.copy()
    numpy_k.rattle_batch(solver, want_vel, want_pos, 1e-12, nrep, n)
    for k in (one, *threaded.values()):
        got_pos = pos0.copy()
        k.shake_batch(solver, got_pos, ref, 1e-10, nrep, n)
        np.testing.assert_array_equal(got_pos, want_pos)
        got_vel = vel0.copy()
        k.rattle_batch(solver, got_vel, got_pos, 1e-12, nrep, n)
        np.testing.assert_array_equal(got_vel, want_vel)


@given(seed=st.integers(0, 2**31 - 1), nrep=st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_solve_stack_equals_per_replica_solo(seed, nrep):
    """Stacked FFT == R solo solves, bit for bit.

    This equality is what licenses farming the ensemble FFT to Python
    worker threads per replica when kernel_threads > 1.
    """
    from repro.ewald.gse import GSEParams, GaussianSplitEwald
    from repro.geometry import Box

    rng = np.random.default_rng(seed)
    box = Box(np.array([17.0, 17.0, 17.0]))
    gse = GaussianSplitEwald(box, GSEParams.choose(box, 4.0, (32, 32, 32)))
    Q = rng.normal(0, 1, (nrep, 32, 32, 32))
    phi_stack, e_stack = gse.solve_stack(Q)
    for r in range(nrep):
        phi_r, e_r = gse.solve(Q[r])
        np.testing.assert_array_equal(phi_stack[r], phi_r)
        assert e_stack[r] == e_r

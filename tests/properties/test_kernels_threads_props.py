"""Property-based tests: the thread count is invisible in the bits.

Every C kernel is single-threaded; ``kernel_threads`` is the width of
the one Python farm over the lanes of a stacked mesh pass
(``CompiledKernels.map_chunks``).  What licenses that farm, and what a
future lane split of the fixed-point accumulators would rest on, is
asserted here rather than assumed:

* Int64 wrapping add is associative and commutative, so partial
  accumulators may be folded in any order
  (``test_wrapping_add_order_free``, including at the accumulator
  extremes) — the paper's Section 4 algebra.
* The stacked FFT equals R solo solves bit for bit
  (``test_solve_stack_equals_per_replica_solo``), so the farm may run
  the solves one lane per worker.
* The serial primitives return the NumPy tier's bytes from a suite of
  any thread count.

Farmed passes themselves are swept across thread counts in
``test_mesh_pass_props.py`` and ``tests/integration``.

Skipped wholesale when the host has no C compiler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MDParams, minimize_energy
from repro.kernels import available, get_suite, make_pair_spec
from repro.kernels.build import load
from repro.kernels.suite import CompiledKernels
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.properties.pair_walk_oracle import assert_walk_matches

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

I64 = np.iinfo(np.int64)

THREADS = (2, 5, 8)


@pytest.fixture(scope="module")
def suites():
    """(numpy, compiled-T1, {T: compiled-T})."""
    base = CompiledKernels(load())
    threaded = {t: CompiledKernels(load(), threads=t) for t in THREADS}
    return get_suite("numpy"), base, threaded


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


# -- the algebraic foundation, asserted not assumed -----------------------


@given(seed=st.integers(0, 2**31 - 1), nparts=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_wrapping_add_order_free(seed, nparts):
    """Folding int64 partials wraps to the same bits in ANY order.

    The reduction any lane split of a fixed-point accumulator performs
    (per-lane partials, wrapping adds), exercised at accumulator
    extremes where non-wrapping arithmetic would overflow and
    order-dependent schemes would differ.
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


# -- serial primitives, from a suite of any thread count ------------------


def _small_gse():
    from repro.ewald.gse import GSEParams, GaussianSplitEwald
    from repro.geometry import Box

    box = Box(np.array([17.0, 17.0, 17.0]))
    return GaussianSplitEwald(box, GSEParams.choose(box, 4.0, (32, 32, 32)))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_pair_walk_threaded_bitwise(suites, table_machine, seed):
    """The table arithmetic under every thread count, incl. cutoff-edge r2.

    It runs inside ``pair_walk``, which is one serial walk whatever
    ``threads`` says: every suite must return the oracle's bytes.
    """
    _, one, threaded = suites
    calc = table_machine.calc
    s = calc.system
    codec = table_machine.fixed_config.force_codec()
    spec = make_pair_spec(calc.tables, s.lj, s.charges, s.type_ids, codec)
    rng = np.random.default_rng(seed)
    cutoff = float(calc.tables.cutoff)
    n = int(rng.integers(4096, 8192))
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
    """A plan's gathered stencil sums are the NumPy tier's under every
    thread count."""
    numpy_k, one, threaded = suites
    rng = np.random.default_rng(seed)
    gse = _small_gse()
    pos = rng.uniform(-5.0, 22.0, (64, 3))
    want = gse.make_plan(pos)
    phi = rng.normal(0.0, 1.0, gse.mesh_point_count())
    want_sums = np.empty((64, 3))
    numpy_k.mesh_gather_axes(want_sums, *want._axes(), phi, 0, 64)
    for k in (one, *threaded.values()):
        sums = np.empty((64, 3))
        k.mesh_gather_axes(sums, *gse.make_plan(pos)._axes(), phi, 0, 64)
        np.testing.assert_array_equal(sums.view(np.int64), want_sums.view(np.int64))


@given(seed=st.integers(0, 2**31 - 1), nrep=st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_solve_stack_equals_per_replica_solo(seed, nrep):
    """Stacked FFT == R solo solves, bit for bit.

    This equality is what licenses farming the stacked FFT to Python
    worker threads per lane when kernel_threads > 1.
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

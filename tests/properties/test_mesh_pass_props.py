"""Property tests: the one mesh pass, at engine sizes, on every suite.

``GaussianSplitEwald.mesh_pass`` is the long-range pass of all three
engines — the float path's ``kspace`` (one lane), the batched ensemble
(R lanes) and the machine's ``mesh_long_range`` (one lane, FFT traffic
accounted before the solve) — and ``MeshStencilPlan`` keeps the memory
budget of its NumPy cubes to itself.  Pinned here, bit for bit:

* one lane == ``kspace`` == one ``mesh_long_range`` evaluation of a
  machine, with quantized and with float spreading;
* R stacked lanes == R solo passes, through one kept plan refilled over
  several evaluations with moved positions;
* a cube plan over its budget (filling each kernel chunk's rows into
  scratch) == the whole-cube plan, for all rows and for a random
  ``rows=`` partition, and the per-node ``SerialBackend`` == the
  ``VectorizedBackend`` under that budget.

The systems are water boxes of several kernel chunks (648 atoms, a 13³
stencil), so chunk loops, lane views and refills run as in an engine.
The compiled suites join where the host has a C compiler.
"""

import numpy as np
import pytest

from repro.core import MDParams
from repro.core.integrator import FixedPointConfig
from repro.ewald import GaussianSplitEwald, GSEParams, MeshStencilPlan
from repro.ewald import gse as gse_module
from repro.kernels import available, get_suite
from repro.machine import AntonMachine
from repro.systems import build_water_box
from tests.properties.test_mesh_fused_props import MESH_CODEC, assert_same_bits
from tests.serial_backend import SerialBackend

FORCE_CODEC = FixedPointConfig().force_codec()

#: (tier, threads) of every suite this host can run.
TIERS = [("numpy", 1)] + ([("compiled", t) for t in (1, 2, 4)] if available() else [])
#: The suites a pass takes as ``kernels=``, NumPy (the default) first.
SUITES = [get_suite(*tier) for tier in TIERS]
CODECS = pytest.mark.parametrize("codec", [MESH_CODEC, None], ids=["quantized", "float"])


def suite_id(k) -> str:
    return f"{k.tier}-t{k.threads}"


def same_bits(got, want) -> None:
    """``assert_same_bits`` (it tells -0.0 from +0.0) for scalars as well."""
    assert_same_bits(np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64))


@pytest.fixture(scope="module")
def water():
    """216 waters: 648 atoms, so two kernel chunks and a 32³ mesh."""
    system = build_water_box(n_molecules=216, seed=5)
    cutoff = 4.5
    params = MDParams(
        cutoff=cutoff, mesh=GSEParams.smallest_mesh(system.box, cutoff), quantize_mesh_bits=40
    )
    gse = GaussianSplitEwald(system.box, GSEParams.choose(system.box, cutoff, params.mesh))
    assert system.n_atoms > gse_module._KERNEL_CHUNK and gse.stencil_size() == 13**3
    return system, params, gse


def moved(positions: np.ndarray, seed: int) -> np.ndarray:
    return positions + np.random.default_rng(seed).normal(0.0, 0.3, positions.shape)


# -- (a) one lane == kspace == the machine's evaluation ------------------------


@CODECS
def test_one_lane_is_kspace_on_every_suite(water, codec):
    system, _params, gse = water
    q = system.charges
    want_e, want_f = gse.kspace(system.positions, q, codec=codec)
    for k in SUITES:
        plan = MeshStencilPlan(gse, system.n_atoms)
        energies, forces = gse.mesh_pass(
            system.positions, q, codec=codec, kernels=k, plan=plan
        )
        assert energies.shape == (1,), suite_id(k)
        same_bits(energies[0], want_e)
        same_bits(forces, want_f)
        e, f = gse.kspace(system.positions, q, codec=codec, kernels=k, plan=plan)
        same_bits(e, want_e)
        same_bits(f, want_f)


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: f"{t[0]}-t{t[1]}")
def test_machine_evaluation_is_the_one_lane_pass(water, tier):
    """``mesh_long_range``: same energy, same deposited force codes, and
    its FFT traffic charged once, between spreading and the solve."""
    system, params, _gse = water
    machine = AntonMachine(
        system.copy(), params, n_nodes=8, dt=1.0, kernel_tier=tier[0], kernel_threads=tier[1]
    )
    try:
        calc = machine.calc
        for step in range(3):  # the kept plan, refilled
            pos = moved(system.positions, step)
            want_e, want_f = calc.gse.kspace(pos, system.charges, codec=calc.mesh_codec)
            fft_before = dict(machine.traffic_summary())
            acc = calc._accumulator("long", FORCE_CODEC)
            e_k = machine.backend.mesh_long_range(calc, pos, acc, FORCE_CODEC)
            same_bits(e_k, want_e)
            np.testing.assert_array_equal(acc.raw(), FORCE_CODEC.quantize_round_only(want_f))
            fft = {
                tag: machine.traffic_summary()[tag][0] - fft_before[tag][0]
                for tag in ("fft_axis0", "fft_axis1", "fft_axis2")
            }
            assert len(set(fft.values())) == 1 and fft["fft_axis0"] > 0
        leaves = set(calc.timers.elapsed)
        assert {"mesh_plan", "mesh_spread", "mesh_unquantize", "mesh_fft_traffic",
                "mesh_fft", "mesh_interp"} <= leaves
    finally:
        machine.close()


# -- (b) R stacked lanes == R solo passes, through one refilled plan -----------


@CODECS
@pytest.mark.parametrize("k", SUITES, ids=suite_id)
def test_stacked_lanes_equal_solo_passes_through_a_refilled_plan(water, k, codec):
    system, _params, gse = water
    n, R, q = system.n_atoms, 3, system.charges
    plan = MeshStencilPlan(gse, R * n)
    kept = None
    for evaluation in range(3):
        lanes = [moved(system.positions, 10 * evaluation + r) for r in range(R)]
        energies, forces = gse.mesh_pass(
            np.concatenate(lanes), q, lanes=R, codec=codec, kernels=k, plan=plan
        )
        assert energies.shape == (R,) and forces.shape == (R * n, 3)
        for r, pos in enumerate(lanes):
            want_e, want_f = gse.mesh_pass(pos, q, codec=codec, kernels=k)
            same_bits(energies[r], want_e[0])
            same_bits(forces[r * n : (r + 1) * n], want_f)
        # Steady state: the plan's rows, lane views and accumulator are
        # the first evaluation's, refilled.
        storage = (*plan.axis_w, *plan._lanes, *([plan._acc] if codec is not None else []))
        if kept is not None:
            assert all(a is b for a, b in zip(storage, kept, strict=True))
        kept = storage


def test_kept_plan_is_freed_by_reference_count(water):
    """A plan that keeps its lane views is no cycle: dropping the holder
    frees rows, views and scratch at once (a serve worker builds an
    engine per dispatch; waiting for the cyclic collector showed as
    tens of MB of resident set)."""
    import gc
    import weakref

    system, _params, gse = water
    plan = MeshStencilPlan(gse, 2 * system.n_atoms)
    stacked = np.concatenate([system.positions, moved(system.positions, 1)])
    gse.mesh_pass(stacked, system.charges, lanes=2, codec=MESH_CODEC, plan=plan)
    alive, lane = weakref.ref(plan), weakref.ref(plan._lanes[0])
    gc.disable()
    try:
        del plan
        assert alive() is None and lane() is None
    finally:
        gc.enable()


# -- (c) the memory budget is the plan's own business --------------------------


def shrink_budget(monkeypatch, gse, atoms: int) -> None:
    """Leave room for ``atoms`` atoms' cubes: far below the plans built here."""
    monkeypatch.setattr(gse_module, "PLAN_MAX_ELEMENTS", atoms * gse.stencil_size())


def plan_results(gse, system, phi, rows_of):
    """Every cube kernel of a fresh plan, over the row sets ``rows_of``."""
    plan = gse.make_plan(system.positions)
    q = system.charges
    mesh = np.zeros(gse.mesh_point_count(), dtype=np.int64)
    qf = np.zeros(gse.mesh_point_count())
    forces = np.empty((system.n_atoms, 3))
    potential = np.empty(system.n_atoms)
    for rows in rows_of:
        plan.spread_codes(q, mesh, MESH_CODEC, rows=rows)
        plan.spread_float(q, qf, rows=rows)
        sel = slice(None) if rows is None else rows
        forces[sel] = plan.interpolate_forces(q, phi, rows=rows)
        potential[sel] = plan.interpolate_potential(phi, rows=rows)
    return plan, (mesh, qf, forces, potential)


@pytest.mark.parametrize("partition", [False, True], ids=["all-rows", "rows-partition"])
def test_chunk_materialising_plan_equals_whole_cube_plan(water, monkeypatch, partition):
    system, _params, gse = water
    rng = np.random.default_rng(17)
    phi = rng.normal(0.0, 1.0, tuple(gse.mesh))
    rows_of = [None]
    if partition:
        owners = rng.integers(0, 5, system.n_atoms)
        rows_of = [np.nonzero(owners == node)[0] for node in range(5)]
    whole, want = plan_results(gse, system, phi, rows_of)
    assert whole._cubes is not None
    shrink_budget(monkeypatch, gse, 100)
    chunked, got = plan_results(gse, system, phi, rows_of)
    assert chunked._cubes is None  # only chunk-sized scratch was ever filled
    assert len(chunked._chunk_cubes[1]) <= gse_module._KERNEL_CHUNK
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:], strict=True):
        same_bits(g, w)
    # The cubes stay available whole to whoever asks for them by name.
    np.testing.assert_array_equal(chunked.flat, whole.flat)
    same_bits(chunked.w, whole.w)


@CODECS
def test_over_budget_stacked_pass_equals_in_budget_solo(water, monkeypatch, codec):
    """Lane views of an over-budget cube plan fill their own chunks; a
    fused plan never had cubes to budget.  Whole cubes appear nowhere."""
    system, _params, gse = water
    n, q = system.n_atoms, system.charges
    lanes = [moved(system.positions, r) for r in range(2)]
    want = [gse.kspace(pos, q, codec=codec) for pos in lanes]
    shrink_budget(monkeypatch, gse, 100)
    for k in SUITES:
        plan = MeshStencilPlan(gse, 2 * n)
        energies, forces = gse.mesh_pass(
            np.concatenate(lanes), q, lanes=2, codec=codec, kernels=k, plan=plan
        )
        assert plan._cubes is None
        for r, (want_e, want_f) in enumerate(want):
            same_bits(energies[r], want_e)
            same_bits(forces[r * n : (r + 1) * n], want_f)


def test_serial_backend_equals_vectorized_under_the_budget(monkeypatch):
    system = build_water_box(n_molecules=24, seed=11)
    params = MDParams(cutoff=4.0, mesh=(16, 16, 16), long_range_every=1, quantize_mesh_bits=40)
    system.initialize_velocities(300.0, seed=12)
    gse = GaussianSplitEwald(system.box, GSEParams.choose(system.box, 4.0, params.mesh))
    shrink_budget(monkeypatch, gse, 10)
    codes = {}
    for name, backend, tier in [
        ("serial", SerialBackend(), "numpy"),
        *[(f"vectorized-{t}", "vectorized", t) for t in sorted({t for t, _ in TIERS})],
    ]:
        machine = AntonMachine(
            system.copy(), params, n_nodes=8, dt=1.0, backend=backend, kernel_tier=tier
        )
        try:
            machine.step(3)
            codes[name] = machine.state_codes()
            assert machine.calc._mesh_plan._cubes is None
        finally:
            machine.close()
    want = codes.pop("serial")
    for name, got in codes.items():
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w, err_msg=name)

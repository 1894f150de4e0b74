"""Property tests: the one mesh pass, at engine sizes, on every suite.

``GaussianSplitEwald.mesh_pass`` is the long-range pass of all three
engines — the float path's ``kspace`` (one lane), the batched ensemble
(R lanes) and the machine's ``mesh_long_range`` (one lane, FFT traffic
accounted before the solve).  Pinned here, bit for bit:

* one lane == ``kspace`` == one ``mesh_long_range`` evaluation of a
  machine, with quantized and with float spreading;
* R stacked lanes == R solo passes, through one kept plan refilled over
  several evaluations with moved positions.

The systems are water boxes of several kernel chunks and NumPy stencil
blocks (648 atoms, a 13³ stencil), so chunk loops, lane views and
refills run as in an engine.
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
    """216 waters: 648 atoms, so two float-spread chunks and a 32³ mesh."""
    system = build_water_box(n_molecules=216, seed=5)
    cutoff = 4.5
    params = MDParams(cutoff=cutoff, mesh=GSEParams.smallest_mesh(system.box, cutoff))
    gse = GaussianSplitEwald(system.box, GSEParams.choose(system.box, cutoff, params.mesh))
    assert system.n_atoms > gse_module._FLOAT_CHUNK and gse.stencil_size() == 13**3
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

"""Integration: buffered-list simulations are bitwise identical to the
per-step-rebuild path, including across checkpoint/restore.

The fixed-point integrator accumulates order-invariant integer force
codes, and the buffered list yields exactly the fresh-search pair set,
so a skin > 0 run must reproduce the skin = 0 ("rebuild every step",
i.e. the seed path) trajectory bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MDParams, Simulation, minimize_energy
from repro.systems import build_water_box

PARAMS = MDParams(cutoff=4.2, skin=0.0, mesh=(16, 16, 16), long_range_every=2)


@pytest.fixture(scope="module")
def system():
    s = build_water_box(n_molecules=24, seed=33)
    minimize_energy(s, PARAMS, max_steps=40)
    s.initialize_velocities(300.0, seed=34)
    return s


def _codes_after(system, params, n_steps, mode="fixed"):
    sim = Simulation(system.copy(), params, dt=1.0, mode=mode)
    sim.run(n_steps)
    return sim.integrator.state_codes(), sim


def test_buffered_fixed_run_bitwise_matches_fresh(system):
    fresh_codes, _ = _codes_after(system, PARAMS, 16)
    buffered_params = replace(PARAMS, skin=1.0)
    buffered_codes, sim = _codes_after(system, buffered_params, 16)
    assert np.array_equal(buffered_codes[0], fresh_codes[0])
    assert np.array_equal(buffered_codes[1], fresh_codes[1])
    # The buffered run must actually have reused the list.
    assert sim.calc.neighbor_list.n_reuses > 0


def test_buffered_float_run_bitwise_matches_fresh(system):
    # Float sums are order-dependent, so this only holds because the
    # list returns pairs in canonical order regardless of skin.
    p0 = replace(PARAMS, skin=0.0)
    p1 = replace(PARAMS, skin=1.0)
    ref = Simulation(system.copy(), p0, dt=1.0, mode="float")
    ref.run(12)
    buf = Simulation(system.copy(), p1, dt=1.0, mode="float")
    buf.run(12)
    np.testing.assert_array_equal(buf.integrator.positions, ref.integrator.positions)


def test_checkpoint_restore_replays_with_buffered_list(system):
    params = replace(PARAMS, skin=1.0)
    ref_codes, _ = _codes_after(system, params, 16)

    first = Simulation(system.copy(), params, dt=1.0, mode="fixed")
    first.run(9)
    chk = first.checkpoint()
    resumed = Simulation(system.copy(), params, dt=1.0, mode="fixed")
    resumed.restore(chk)
    resumed.run(7)
    codes = resumed.integrator.state_codes()
    assert np.array_equal(codes[0], ref_codes[0])
    assert np.array_equal(codes[1], ref_codes[1])


def test_rebuild_counters_surface_in_timers(system):
    params = replace(PARAMS, skin=1.0)
    sim = Simulation(system.copy(), params, dt=1.0, mode="fixed")
    sim.run(10)
    counts = sim.calc.timers.counts
    nl = sim.calc.neighbor_list
    assert counts.get("neighbor_builds", 0) == nl.n_builds
    assert counts.get("neighbor_reuses", 0) == nl.n_reuses
    assert nl.n_builds + nl.n_reuses >= 10

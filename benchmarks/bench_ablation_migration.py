"""Ablation (Section 3.2.4): migration interval N.

"Anton mitigates this expense by performing migration operations only
every N time steps, where N is typically between 4 and 8."  The trade:
fewer migration passes (sequential bookkeeping on the critical path)
against a slightly larger import region (atoms drift up to N steps
past a boundary before being handed off).
"""

import numpy as np

from repro.core import MDParams, minimize_energy
from repro.machine import AntonMachine
from repro.systems import build_water_box


def run_with_interval(base, params, interval, steps=16):
    m = AntonMachine(base.copy(), params, n_nodes=8, dt=1.0, migration_interval=interval)
    m.step(steps)
    msgs, _bytes = m.traffic_summary().get("migration", (0, 0))
    n_passes = sum(1 for e in m.migration.events)
    return {
        "migrated_atoms": msgs,
        "migration_passes": n_passes,
        "import_margin": m.migration.import_margin(),
        "state": m.state_codes(),
    }


def test_migration_interval_ablation(benchmark, record_table):
    base = build_water_box(n_molecules=32, seed=7)
    params = MDParams(cutoff=4.5, mesh=(16, 16, 16))
    minimize_energy(base, params, max_steps=40)
    base.initialize_velocities(320.0, seed=8)

    def run_all():
        return {n: run_with_interval(base, params, n) for n in (1, 4, 8)}

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Migration-interval ablation (16 steps, 8 nodes)",
        f"{'N':>3} {'passes':>7} {'migrated':>9} {'import margin (A)':>18}",
    ]
    for n, r in out.items():
        lines.append(f"{n:>3} {r['migration_passes']:>7} {r['migrated_atoms']:>9} {r['import_margin']:>18.2f}")
    record_table("ablation_migration", lines)

    # Fewer passes with larger N (the bookkeeping saved)...
    assert out[1]["migration_passes"] > out[4]["migration_passes"] > out[8]["migration_passes"]
    # ...at the cost of a monotonically larger import margin.
    assert out[1]["import_margin"] < out[4]["import_margin"] < out[8]["import_margin"]
    # And crucially: the physics is identical regardless (the expanded
    # import region guarantees the same interaction set).
    for n in (4, 8):
        assert np.array_equal(out[1]["state"][0], out[n]["state"][0])

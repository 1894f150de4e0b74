"""Integration: the full Anton numerics path end-to-end.

Tabulated kernels + fixed-point accumulation + quantized mesh +
machine distribution, all at once — the configuration closest to what
the hardware actually runs — must preserve every Section 4 property
and stay physically consistent with the float64 reference.
"""

import numpy as np
import pytest

from repro.analysis import analytic_forces, force_error
from repro.core import FixedPointConfig, ForceCalculator, MDParams, Simulation, minimize_energy
from repro.machine import AntonMachine
from repro.systems import build_water_box

TABLE_PARAMS = MDParams(
    cutoff=4.2,
    mesh=(16, 16, 16),
    long_range_every=2,
)


@pytest.fixture(scope="module")
def prepared():
    base = build_water_box(n_molecules=24, seed=31)
    minimize_energy(base, MDParams(cutoff=4.2, mesh=(16, 16, 16)), max_steps=40)
    base.initialize_velocities(300.0, seed=32)
    return base


def test_table_kernel_machine_invariance(prepared):
    codes = {}
    for n_nodes in (1, 8):
        m = AntonMachine(prepared.copy(), TABLE_PARAMS, n_nodes=n_nodes, dt=1.0)
        m.step(6)
        codes[n_nodes] = m.state_codes()
    assert np.array_equal(codes[1][0], codes[8][0])
    assert np.array_equal(codes[1][1], codes[8][1])


def test_table_forces_track_analytic_forces(prepared):
    # Table + fixed-point error against the float64 analytic oracle at
    # the same parameters: ~1e-5 of the rms force, and not zero — a
    # table path compared with itself would sit at the codec's ~1e-9.
    calc = ForceCalculator(prepared, MDParams(cutoff=4.2, mesh=(16, 16, 16)))
    _codes, report = calc.compute_fixed(prepared.positions, FixedPointConfig().force_codec())
    err = force_error(report.forces, analytic_forces(calc, prepared.positions))
    assert 1e-6 < err.fraction < 1e-4


def test_table_kernel_reversibility(prepared):
    # Exact reversibility must hold for table-driven forces too: the
    # table is just another deterministic function of positions.
    from repro.core import ChemicalSystem
    from repro.forcefield import LJTable, Topology
    from repro.geometry import Box

    n = 27
    box = Box.cubic(13.0)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), -1).reshape(-1, 3)
    system = ChemicalSystem(
        box=box,
        positions=grid * 4.0 + 1.0,
        masses=np.full(n, 39.948),
        charges=np.zeros(n),
        type_ids=np.zeros(n, np.int64),
        lj=LJTable([3.4], [0.238]),
        topology=Topology(n),
    )
    system.initialize_velocities(100.0, seed=33)
    sim = Simulation(
        system,
        MDParams(cutoff=6.0, mesh=(16, 16, 16)),
        dt=2.0,
        mode="fixed",
        constraints=False,
    )
    x0, v0 = sim.integrator.state_codes()
    sim.run(40)
    sim.integrator.negate_velocities()
    sim.run(40)
    sim.integrator.negate_velocities()
    x1, v1 = sim.integrator.state_codes()
    assert np.array_equal(x0, x1)
    assert np.array_equal(v0, v1)


def test_position_import_traffic_scales_with_region(prepared):
    """Sanity link between the functional machine's measured traffic
    and the analytic import-region geometry."""
    m = AntonMachine(prepared.copy(), TABLE_PARAMS, n_nodes=8, dt=1.0)
    m.step(1)
    msgs, nbytes = m.traffic_summary()["position_import"]
    atoms_imported = nbytes / m.hw.bytes_per_position
    # Each of 8 nodes imports at most the whole rest of the system and
    # at least its tower/plate neighbors' content.
    assert atoms_imported <= 8 * prepared.n_atoms
    assert atoms_imported >= prepared.n_atoms  # nontrivial import

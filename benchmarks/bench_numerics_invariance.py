"""Section 4's numerics experiments: determinism, parallel invariance,
exact reversibility — at functional-simulation scale.

Paper versions: bitwise-identical 4-billion-step reruns; identical
2.7-billion-step results on 128- vs 512-node machines; bit-for-bit
recovery of initial conditions after 400M steps forward + 400M back.
Ours run hundreds of steps, but the guarantees are structural (integer
arithmetic), not statistical — a single mismatch anywhere would fail.
"""

import numpy as np

from repro.core import MDParams, Simulation, minimize_energy
from repro.machine import AntonMachine
from repro.systems import build_water_box


def prepared_water():
    base = build_water_box(n_molecules=32, seed=7)
    params = MDParams(cutoff=4.5, mesh=(16, 16, 16))
    minimize_energy(base, params, max_steps=40)
    base.initialize_velocities(300.0, seed=8)
    return base, params


def test_determinism_bitwise_rerun(benchmark, record_table):
    base, params = prepared_water()

    def run_once():
        sim = Simulation(base.copy(), params, dt=1.0, mode="fixed")
        sim.run(25)
        return sim.integrator.state_codes()

    x1, v1 = benchmark.pedantic(run_once, rounds=1, iterations=1)
    x2, v2 = run_once()
    assert np.array_equal(x1, x2) and np.array_equal(v1, v2)
    record_table(
        "numerics_determinism",
        ["determinism: 25-step rerun bitwise identical: PASS"],
    )


def test_parallel_invariance_across_node_counts(benchmark, record_table):
    base, params = prepared_water()

    def run_engines():
        sim = Simulation(base.copy(), params, dt=1.0, mode="fixed")
        sim.run(10)
        codes = {"solo": sim.integrator.state_codes()}
        for n_nodes in (1, 8, 64):
            m = AntonMachine(base.copy(), params, n_nodes=n_nodes, dt=1.0)
            m.step(10)
            codes[n_nodes] = m.state_codes()
        return codes

    codes = benchmark.pedantic(run_engines, rounds=1, iterations=1)
    for n_nodes in (1, 8, 64):
        assert np.array_equal(codes["solo"][0], codes[n_nodes][0]), n_nodes
        assert np.array_equal(codes["solo"][1], codes[n_nodes][1]), n_nodes
    record_table(
        "numerics_parallel_invariance",
        ["parallel invariance: solo Simulation == 1 == 8 == 64 simulated nodes, "
         "10 steps, bitwise: PASS"],
    )


def test_exact_reversibility(benchmark, record_table):
    # Unconstrained LJ system (the paper's reversibility claim excludes
    # constraints and temperature control).
    import numpy as np

    from repro.core.system import ChemicalSystem
    from repro.forcefield import LJTable, Topology
    from repro.geometry import Box

    n = 64
    box = Box.cubic(16.0)
    grid = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    system = ChemicalSystem(
        box=box,
        positions=grid * 3.8 + 1.0,
        masses=np.full(n, 39.948),
        charges=np.zeros(n),
        type_ids=np.zeros(n, np.int64),
        lj=LJTable([3.4], [0.238]),
        topology=Topology(n),
    )
    system.initialize_velocities(120.0, seed=5)
    params = MDParams(cutoff=7.0, mesh=(16, 16, 16))

    def forward_backward(steps=150):
        sim = Simulation(system.copy(), params, dt=2.0, mode="fixed", constraints=False)
        x0, v0 = sim.integrator.state_codes()
        sim.run(steps)
        sim.integrator.negate_velocities()
        sim.run(steps)
        sim.integrator.negate_velocities()
        x1, v1 = sim.integrator.state_codes()
        return np.array_equal(x0, x1) and np.array_equal(v0, v1)

    ok = benchmark.pedantic(forward_backward, rounds=1, iterations=1)
    assert ok
    record_table(
        "numerics_reversibility",
        ["exact reversibility: 150 steps forward + 150 back, bit-for-bit: PASS"],
    )

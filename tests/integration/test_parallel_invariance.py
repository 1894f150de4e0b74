"""Integration: the paper's Section 4 parallel-invariance experiment.

"A given simulation will evolve in exactly the same way on any single-
or multi-node Anton configuration ... We verified, for example, that
2.7 billion time steps produced identical results on 128-node and
512-node Anton configurations."  Here, at functional-simulation scale:
one water system, prepared the way every driver prepares it, stepped on
1-, 8-, and 64-node machines, on the plain single-process fixed-point
path and as one lane of a batched ensemble, must match bit for bit —
with no mesh argument anywhere: the fixed-point arithmetic picks its
integer mesh spread itself.
"""

import numpy as np
import pytest

from repro.core import Simulation
from repro.ensemble import EnsembleSimulation
from repro.machine import AntonMachine
from repro.systems import prepare_water_box


@pytest.fixture(scope="module")
def prepared_system():
    base, params, _ = prepare_water_box(32, 7, cutoff=4.5, long_range_every=2, minimize_steps=40)
    base.initialize_velocities(300.0, seed=8)
    return base, params


@pytest.fixture(scope="module")
def reference_codes(prepared_system):
    base, params = prepared_system
    sim = Simulation(base.copy(), params, dt=1.0, mode="fixed")
    sim.run(8)
    return sim.integrator.state_codes()


@pytest.mark.parametrize("n_nodes", [1, 8, 64])
def test_machine_matches_single_process_reference(prepared_system, reference_codes, n_nodes):
    base, params = prepared_system
    m = AntonMachine(base.copy(), params, n_nodes=n_nodes, dt=1.0, migration_interval=4)
    m.step(8)
    x, v = m.state_codes()
    assert np.array_equal(x, reference_codes[0])
    assert np.array_equal(v, reference_codes[1])


def test_ensemble_lane_matches_single_process_reference(prepared_system, reference_codes):
    base, params = prepared_system
    ens = EnsembleSimulation(base.copy(), params, dt=1.0, replicas=2)
    ens.run(8)
    x, v = ens.state_codes(0)
    assert np.array_equal(x, reference_codes[0])
    assert np.array_equal(v, reference_codes[1])


def test_subboxes_do_not_change_results(prepared_system, reference_codes):
    base, params = prepared_system
    m = AntonMachine(base.copy(), params, n_nodes=8, dt=1.0, subbox_divisions=2)
    m.step(8)
    x, _ = m.state_codes()
    assert np.array_equal(x, reference_codes[0])


def test_migration_interval_does_not_change_results(prepared_system, reference_codes):
    base, params = prepared_system
    m = AntonMachine(base.copy(), params, n_nodes=8, dt=1.0, migration_interval=1)
    m.step(8)
    x, _ = m.state_codes()
    assert np.array_equal(x, reference_codes[0])


def test_traffic_scales_with_node_count(prepared_system):
    base, params = prepared_system
    totals = {}
    for n_nodes in (8, 64):
        m = AntonMachine(base.copy(), params, n_nodes=n_nodes, dt=1.0)
        m.step(2)
        totals[n_nodes] = m.network.stats.messages
    assert totals[64] > totals[8]  # more nodes, more messages in flight

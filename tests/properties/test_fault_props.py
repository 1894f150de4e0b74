"""Property-based tests of fault-schedule determinism and recovery.

The contract under test: a fault schedule is a pure function of
``(seed, rates, step)`` — no stream state, no query-order dependence —
and the recovery machinery built on it heals any injected sequence
back to the fault-free bits identically on every execution backend.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChemicalSystem, MDParams
from repro.fault import MESSAGE_KINDS, NODE_KINDS, FaultSchedule
from repro.forcefield import LJTable, Topology
from repro.geometry import Box
from repro.io.serialize import pack_state
from repro.machine import AntonMachine
from tests.serial_backend import machine_backend

seeds = st.integers(0, 2**31 - 1)


def rates_strategy():
    message = st.dictionaries(
        st.sampled_from(MESSAGE_KINDS),
        st.floats(0.0, 1.0, allow_nan=False),
        max_size=len(MESSAGE_KINDS),
    )
    node = st.dictionaries(
        st.sampled_from(NODE_KINDS), st.integers(0, 3), max_size=len(NODE_KINDS)
    )
    return st.tuples(message, node).map(lambda t: {**t[0], **t[1]})


@given(seeds, rates_strategy(), st.integers(0, 1000), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_same_seed_same_events(seed, rates, start, n_steps):
    a = FaultSchedule(seed=seed, rates=rates).events(start, n_steps)
    b = FaultSchedule(seed=seed, rates=rates).events(start, n_steps)
    assert a == b
    assert all(start <= e.step < start + n_steps for e in a)
    assert {e.kind for e in a} <= set(rates)


@given(seeds, st.dictionaries(st.sampled_from(MESSAGE_KINDS),
                              st.floats(0.0, 1.0, allow_nan=False), min_size=1),
       st.integers(0, 500), st.integers(1, 150), st.integers(1, 149))
@settings(max_examples=60, deadline=None)
def test_rate_events_split_invariant(seed, rates, start, n_steps, cut):
    # Querying one window must equal concatenating its two halves, in
    # either order — the purity that makes schedules backend-agnostic.
    cut = cut % n_steps
    sched = FaultSchedule(seed=seed, rates=rates)
    whole = sched.events(start, n_steps)
    tail = sched.events(start + cut, n_steps - cut)  # queried first
    head = sched.events(start, cut)
    assert whole == sorted(head + tail)


@given(seeds, st.integers(0, 5), st.integers(1, 100))
@settings(max_examples=60, deadline=None)
def test_count_events_place_exactly_n(seed, count, n_steps):
    events = FaultSchedule(seed=seed, rates={"crash": count}).events(0, n_steps)
    assert len(events) == count
    assert all(0 <= e.step < n_steps for e in events)


# -- recovered-trajectory invariance across backends -------------------------

PARAMS = MDParams(cutoff=7.0, mesh=(16, 16, 16))
RATES = {"drop": 0.4, "corrupt": 0.2, "crash": 1}
_clean_cache: dict[str, bytes] = {}


def argon_system():
    n_side, spacing = 4, 3.8
    n = n_side**3
    box = Box.cubic(n_side * spacing + 1.0)
    grid = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    s = ChemicalSystem(
        box=box,
        positions=grid * spacing + 1.0,
        masses=np.full(n, 39.948),
        charges=np.zeros(n),
        type_ids=np.zeros(n, np.int64),
        lj=LJTable([3.4], [0.238]),
        topology=Topology(n),
    )
    s.initialize_velocities(120.0, seed=5)
    return s


def run_machine(backend, fault_seed=None, steps=6):
    faults = RATES if fault_seed is not None else None
    machine = AntonMachine(
        argon_system(), PARAMS, n_nodes=8, dt=2.0, constraints=False,
        backend=machine_backend(backend), faults=faults, fault_seed=fault_seed or 0,
    )
    try:
        machine.run(steps)
        return pack_state(machine.checkpoint()), machine.fault_report()
    finally:
        machine.close()


def clean_packed(backend):
    if backend not in _clean_cache:
        _clean_cache[backend], _ = run_machine(backend)
    return _clean_cache[backend]


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_same_seed_identical_recovery_across_backends(fault_seed):
    serial_packed, serial_report = run_machine("serial", fault_seed)
    vector_packed, vector_report = run_machine("vectorized", fault_seed)
    # Identical fault handling on both backends...
    assert serial_report == vector_report
    assert serial_packed == vector_packed
    # ...and both healed to the fault-free trajectory.
    assert serial_packed == clean_packed("serial")
    assert vector_packed == clean_packed("vectorized")

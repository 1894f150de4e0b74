"""Per-step counts of the glue around the kernels: deterministic, so host
noise cannot move them.

A force evaluation wraps its coordinates once, for the pair list, and
its mesh plan reads that wrap; a machine step looks its home boxes up
once, for the tags of the force evaluation's pair walk, and the step's migration and
the next step's position import reuse them; its traffic accounting
builds the node coordinate table once per topology; a 48-atom solo step makes a
bounded number of Python calls.  The bounds
are the counts of the code as committed — each was higher before the
passes it counts were merged — so a change that adds glue to a step
fails here, whatever the host's speed.
"""

import gc
import sys
from functools import cached_property

import numpy as np
import pytest

from repro.core import MDParams, Simulation
from repro.ewald import GSEParams
from repro.geometry import Box
from repro.kernels import available, suite
from repro.machine import AntonMachine
from repro.parallel import SpatialDecomposition, TorusTopology
from repro.systems import build_water_box

#: Python function calls (``sys.setprofile`` "call" events) per step of
#: the 48-atom box below on the compiled tier: long-range and short-only
#: steps alternate, so the mean is over whole MTS cycles.  No step of the
#: run records energies, so none decodes any (was 350 while every step
#: decoded its energies).
SOLO_CALLS_PER_STEP = 329

#: Data-pointer reads (``kernels.suite._ptr`` misses, ~2 µs each) per step
#: of the same box after warm-up: none.  The mesh plan keeps every array
#: it hands to C; SETTLE, the correction deposit and the rebuild read
#: kept scratch or static inputs; and the walk gets the rebuild's whole
#: partner buffer, not a fresh prefix view of it after each rebuild (was
#: 0.7; 5.9 before that: SETTLE's coordinates, the wrapped coordinates,
#: the correction codes and indices, the rebuild's cursor).
SOLO_POINTER_MISSES_PER_STEP = 0


class _Counter:
    """Counts calls of ``cls.name`` while installed (monkeypatch)."""

    def __init__(self, monkeypatch, cls, name):
        self.n = 0
        raw = getattr(cls, name)

        def counted(*args, **kwargs):
            self.n += 1
            return raw(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


@pytest.fixture
def machine():
    params = MDParams(cutoff=5.0, mesh=(32, 32, 32), long_range_every=2)
    system = build_water_box(n_molecules=64, seed=3)
    system.initialize_velocities(300.0, seed=2)
    m = AntonMachine(system, params, n_nodes=8, dt=2.0, migration_interval=4)
    m.step(4)
    yield m
    m.close()


def test_box_wrap_calls_per_force_evaluation(machine, monkeypatch):
    """One wrap per evaluation, with or without the mesh (was 2 and 3:
    the NT home boxes and the mesh plan wrapped the same coordinates
    again; the home boxes the walk's sets are tagged with come from this
    wrap)."""
    wraps = _Counter(monkeypatch, Box, "wrap")
    provider = machine.integrator.force_fn
    per_eval = []

    def counted_provider(positions, energies=False):
        before = wraps.n
        long_range = provider.calls % provider.k == 0
        out = provider(positions, energies)
        per_eval.append((long_range, wraps.n - before))
        return out

    machine.integrator.force_fn = counted_provider
    machine.step(8)
    assert len(per_eval) == 8
    assert {n for long_range, n in per_eval if not long_range} == {1}
    assert {n for long_range, n in per_eval if long_range} == {1}
    # Per step: the evaluation's, plus the drift's encode after SETTLE.
    assert wraps.n == sum(n for _, n in per_eval) + 8


def test_home_boxes_once_per_machine_step(machine, monkeypatch):
    """The pair walk's hook looks the step's home boxes up from the pair
    list's wrapped coordinates; migration and the next position import
    reuse them (was 2.25 ``box_coord`` passes a step)."""
    coords = _Counter(monkeypatch, SpatialDecomposition, "box_coord")
    lookups = _Counter(monkeypatch, SpatialDecomposition, "node_of_wrapped")
    migrations = len(machine.migration.events)
    machine.step(8)
    assert coords.n == 0
    assert lookups.n == 8
    assert len(machine.migration.events) == migrations + 2  # every 4 steps, as before


def test_node_coordinates_built_once_per_topology(machine, monkeypatch):
    """The traffic accounting's hop counts index one ``(n_nodes, 3)``
    coordinate table per topology (was an ``np.stack`` per lookup,
    about twelve a ``machine64`` step): with the cache dropped, 8 steps
    build it once and look coordinates up many times."""
    builds = 0
    build = TorusTopology.coord_table.func

    def counted(topology):
        nonlocal builds
        builds += 1
        return build(topology)

    monkeypatch.setattr(TorusTopology, "coord_table", cached_property(counted))
    TorusTopology.coord_table.__set_name__(TorusTopology, "coord_table")
    machine.topology.__dict__.pop("coord_table", None)
    lookups = _Counter(monkeypatch, TorusTopology, "coords_of")
    machine.step(8)
    assert machine.network.topology is machine.topology
    assert lookups.n >= 8 * 2
    assert builds == 1


def small_solo() -> Simulation:
    """The 48-atom box, warmed up: tables, plan, scratch, pointers."""
    system = build_water_box(n_molecules=16, seed=3)
    system.initialize_velocities(300.0, seed=1)
    cutoff = 3.52
    params = MDParams(
        cutoff=cutoff, mesh=GSEParams.smallest_mesh(system.box, cutoff),
        long_range_every=2, quantize_mesh_bits=40,
    )
    sim = Simulation(system, params, dt=2.0, mode="fixed", kernel_tier="compiled")
    sim.run(4)
    return sim


@pytest.mark.skipif(not available(), reason="no C compiler: compiled kernel tier unavailable")
def test_pointer_reads_per_step_of_a_48_atom_box(monkeypatch):
    sim = small_solo()
    misses = {}

    class Counting(dict):
        def __setitem__(self, key, value):
            kernel = sys._getframe(2).f_code.co_name  # the wrapper that called _ptr
            misses[kernel] = misses.get(kernel, 0) + 1
            super().__setitem__(key, value)

    monkeypatch.setattr(suite, "_POINTERS", Counting(suite._POINTERS))
    steps = 10
    sim.run(steps)
    assert not {k: v for k, v in misses.items() if k.startswith("mesh_")}, misses
    assert sum(misses.values()) / steps <= SOLO_POINTER_MISSES_PER_STEP, misses


@pytest.mark.skipif(not available(), reason="no C compiler: compiled kernel tier unavailable")
def test_python_calls_per_step_of_a_48_atom_box():
    sim = small_solo()
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    steps = 10
    # The cyclic collector would run other tests' finalizers inside the
    # window, whenever it happens to fire: count this run's calls only.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        sim.run(steps)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert np.isfinite(sim.integrator.temperature())
    assert calls / steps <= SOLO_CALLS_PER_STEP, f"{calls / steps} Python calls a step"

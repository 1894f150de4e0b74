"""Python calls of set-up: deterministic, so host noise cannot move them.

Building a water box, a constraint solver, a force calculator and a
machine derives every static structure — rotations, constraint and site
terms, merged topology, exclusions, constraint groups, rigid waters, the
distributed FFT's routes — in array passes
(DESIGN.md, "Set-up"), so the Python function calls (``sys.setprofile``
"call" events) each makes do not grow with the molecule count.  The
bounds are the counts of the code as committed; a per-molecule loop
adds thousands at 1,700 waters and fails here on any host.
"""

import gc
import sys

import pytest

from repro.core import ConstraintSolver, ForceCalculator, MDParams
from repro.ewald import GSEParams
from repro.forcefield import TIP4PEW
from repro.machine import AntonMachine
from repro.systems import build_water_box

#: ``build_water_box(n_molecules=1700)`` (was 91,974: a QR rotation, three
#: ``add_constraint`` calls and their merge per molecule, then the
#: exclusion walk).
BUILD_CALLS = 394
#: The same with 4-site TIP4P-Ew waters (was 122,574).
BUILD_CALLS_TIP4PEW = 451
#: One ``ConstraintSolver`` on the 1,700 waters (was 13,624: the rigid-water scan).
SOLVER_CALLS = 100
#: One ``ForceCalculator`` on them, its kernel tables already built.
CALCULATOR_CALLS = 140
#: One ``AntonMachine`` on 216 waters, its first force evaluation
#: included: 1,702 on the compiled tier and 1,886 on the NumPy tier, the
#: same at 8 and 64 nodes (was 6,098 at 64 nodes and 1,994 at 8, with an
#: ``axis_line`` and its ``node_id`` calls per node and axis for the
#: FFT's routes).
MACHINE_CALLS = 1900


def calls(fn):
    """``(Python calls made by fn(), its result)``."""
    n = 0

    def profile(_frame, event, _arg):
        nonlocal n
        n += event == "call"

    # Count this call's events only, not a collector's finalizers.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return n, out


@pytest.fixture(scope="module")
def box():
    build_water_box(n_molecules=8, seed=0)  # first-use imports and caches
    return calls(lambda: build_water_box(n_molecules=1700, seed=0))


def test_build_water_box(box):
    n, _system = box
    assert n <= BUILD_CALLS
    small, _ = calls(lambda: build_water_box(n_molecules=100, seed=0))
    assert small == n  # nothing per molecule
    n4, _ = calls(lambda: build_water_box(n_molecules=1700, seed=0, model=TIP4PEW))
    assert n4 <= BUILD_CALLS_TIP4PEW


def test_constraint_solver(box):
    _, system = box
    n, solver = calls(lambda: ConstraintSolver(system.topology, system.masses, system.box))
    assert len(solver.waters) == 1700
    assert n <= SOLVER_CALLS


def test_force_calculator(box):
    _, system = box
    params = MDParams(cutoff=9.0, mesh=GSEParams.smallest_mesh(system.box, 9.0))
    ForceCalculator(system, params)  # builds the kernel tables for this cutoff
    n, _calc = calls(lambda: ForceCalculator(system, params))
    assert n <= CALCULATOR_CALLS


def test_machine_construction():
    system = build_water_box(n_molecules=216, seed=0)
    params = MDParams(cutoff=8.0, mesh=(32, 32, 32))
    AntonMachine(system.copy(), params, n_nodes=64)  # kernel tables, first-use imports
    counts = [
        calls(lambda: AntonMachine(system.copy(), params, n_nodes=nodes))[0]
        for nodes in (8, 64)
    ]
    assert counts[0] == counts[1]  # nothing per node
    assert counts[1] <= MACHINE_CALLS

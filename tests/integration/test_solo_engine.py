"""Integration: ``Simulation`` (the R=1 batched engine) equals the solo oracle.

``tests/solo_oracle.py`` assembles the plain NumPy solo wiring from
public parts; a fixed-mode ``Simulation`` must reproduce it bit for bit
— state codes, energy records, trajectory and checkpoint bytes — on the
NumPy tier and on the compiled tier at one and at four kernel threads,
through several neighbour rebuilds (thin skin) and a mid-run restore
into a fresh object.  The golden pin at the bottom ties both to the
bytes of the commit *before* solo became the engine.
"""

import pytest

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.forcefield import TIP4PEW
from repro.io import CheckpointStore, EnergyLogWriter, truncate_energy_log
from repro.kernels import available
from repro.systems import build_solvated_protein, build_water_box
from tests.solo_oracle import SoloOracle, state_sha256

STEPS = 12
KILLED_AT = 8
#: A multiple of every ``long_range_every`` below: a restore replays the
#: one evaluation behind the cached forces, so the long-range *energy*
#: terms are only on hand again from a step that evaluated them.
RESUME_AT = 6
needs_compiler = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)
TIERS = [
    pytest.param("numpy", 1, id="numpy"),
    pytest.param("compiled", 1, id="compiled-T1", marks=needs_compiler),
    pytest.param("compiled", 4, id="compiled-T4", marks=needs_compiler),
]

#: name -> (builder, cutoff): rigid water, TIP4P/Ew virtual sites, and a
#: peptide (bonds, angles, dihedrals, H constraints) in water.
SYSTEMS = {
    "water": (lambda: build_water_box(n_molecules=24, seed=11), 4.0),
    "tip4pew": (lambda: build_water_box(n_molecules=20, model=TIP4PEW, seed=2), 3.8),
    "peptide": (lambda: build_solvated_protein(n_residues=3, side=11.0, seed=3), 5.2),
}

#: (constraints + thermostat, long_range_every): every value of every
#: axis, on every system.
PHYSICS = {
    "con-k1": (True, 1),
    "free-k2": (False, 2),
    "free-k3": (False, 3),
}

_prepared = {}
_oracle_runs = {}


def _case(system_name, physics_name):
    build, cutoff = SYSTEMS[system_name]
    constrained, k = PHYSICS[physics_name]
    params = MDParams(cutoff=cutoff, skin=0.1, mesh=(16, 16, 16), long_range_every=k)
    if system_name not in _prepared:
        system = build()
        minimize_energy(system, MDParams(cutoff=cutoff, mesh=(16, 16, 16)), max_steps=20)
        system.initialize_velocities(300.0, seed=12)
        _prepared[system_name] = system
    wiring = dict(dt=1.0, constraints=constrained,
                  thermostat=BerendsenThermostat(300.0) if constrained else None)
    return _prepared[system_name], params, wiring


def _run(engine, root, n_steps, append=False):
    """run(n) with every artifact on, as ``cmd_simulate`` wires it."""
    store = CheckpointStore(root / "ck", retain=8)
    traj = (engine.append_trajectory if append else engine.open_trajectory)(root / "traj.rrs")
    with traj, EnergyLogWriter(root / "energy.jsonl", append=append) as log:
        engine.run(n_steps, record_every=engine.params.long_range_every, energy_writer=log,
                   trajectory=traj, trajectory_every=2,
                   checkpoint_store=store, checkpoint_every=3)
    return store


def _artifacts(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _oracle(system_name, physics_name, tmp_path_factory):
    key = system_name, physics_name
    if key not in _oracle_runs:
        system, params, wiring = _case(*key)
        root = tmp_path_factory.mktemp("oracle")
        oracle = SoloOracle(system.copy(), params, **wiring)
        _run(oracle, root, STEPS)
        assert oracle.calc.neighbor_list.n_builds >= 3
        _oracle_runs[key] = oracle.state_codes(), oracle.energy_log, _artifacts(root)
    return _oracle_runs[key]


@pytest.mark.parametrize("tier, threads", TIERS)
@pytest.mark.parametrize("physics_name", PHYSICS)
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_simulation_equals_the_solo_oracle(system_name, physics_name, tier, threads,
                                           tmp_path, tmp_path_factory):
    (X, V), records, files = _oracle(system_name, physics_name, tmp_path_factory)
    system, params, wiring = _case(system_name, physics_name)
    tiered = dict(wiring, kernel_tier=tier, kernel_threads=threads)

    first = Simulation(system.copy(), params, **tiered)
    assert (first.engine.kernels.tier, first.engine.kernels.threads) == (tier, threads)
    store = _run(first, tmp_path, KILLED_AT)
    assert first.energy_log == [r for r in records if r.step <= KILLED_AT]

    # What a run killed after step KILLED_AT leaves behind, resumed from
    # the older snapshot by a fresh object on the same tier.
    resumed = Simulation(system.copy(), params, **tiered)
    state, _header = store.load(store.path_for(RESUME_AT))
    resumed.restore(state)
    assert resumed.integrator.step_count == RESUME_AT
    truncate_energy_log(tmp_path / "energy.jsonl", RESUME_AT)
    _run(resumed, tmp_path, STEPS - RESUME_AT, append=True)

    assert resumed.energy_log == [r for r in records if r.step > RESUME_AT]
    got_X, got_V = resumed.integrator.state_codes()
    assert (got_X == X).all() and (got_V == V).all()
    assert _artifacts(tmp_path) == files
    assert resumed.calc.neighbor_list.n_builds >= 2


# sha256 of (X, V) and the minimized energy of the run below, recorded
# from commit 21b9ad8 (PR 16) — the last one whose ``Simulation`` wired
# the NumPy solo path itself and whose ``minimize_energy`` built its
# neighbour list without a kernel suite.  The energy was re-recorded
# once, when the mesh gather's sums moved from BLAS's matmul/einsum
# order into DESIGN.md's gather-order lemma (its last bits moved; the
# state codes did not).  The state was re-recorded once, when every
# fixed-point evaluation began to spread the mesh through the 40-bit
# integer codec (it had spread float); the new value is commit
# 2560655's run with ``quantize_mesh_bits=40`` on the dynamics and the
# minimiser unchanged.
GOLDEN_STATE = "78d3d8e9e713484128670ca757080f81e84908c0ab9e82cf78f026095c8a93ba"
GOLDEN_MINIMIZED_ENERGY = -166.35705503337385


@pytest.mark.parametrize("make", [Simulation, SoloOracle], ids=["simulation", "oracle"])
def test_golden_state_from_before_solo_was_the_engine(make):
    params = MDParams(cutoff=4.0, skin=0.1, mesh=(16, 16, 16), long_range_every=2)
    system = build_water_box(n_molecules=24, seed=11)
    assert minimize_energy(system, params, max_steps=30) == GOLDEN_MINIMIZED_ENERGY
    system.initialize_velocities(300.0, seed=12)
    sim = make(system, params, dt=1.0, thermostat=BerendsenThermostat(300.0))
    sim.run(STEPS)
    assert state_sha256(*sim.integrator.state_codes()) == GOLDEN_STATE

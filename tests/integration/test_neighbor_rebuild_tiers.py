"""Integration: the compiled rebuild, pair walk and mesh kernels are invisible in the artifacts.

``NeighborList`` rebuilds through the suite's ``neighbor_build`` (the C
sweep on the compiled tier, the NumPy cell pipeline on the NumPy tier),
the range-limited forces go from the cached candidates to the
accumulator in one suite ``pair_walk`` (one C pass, or the NumPy
filter / table / deposit passes), and on the compiled tier the
long-range mesh spreads and gathers straight from the stencil plan's
per-axis rows instead of its NumPy cubes.  A thin skin
forces several rebuilds inside a short run that also holds six
long-range evaluations, and the files on disk — trajectory and
checkpoints — of the machine, of the ensemble and of a solo simulation
on that tier must come out byte-identical on the NumPy tier and on
the compiled tier at one and at four kernel threads (rebuild and walk
are serial at every thread count).
"""

import pytest

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation, derive_replica_seeds
from repro.io import CheckpointStore, replica_checkpoint_store, replica_trajectory_path
from repro.kernels import available, get_suite
from repro.machine import AntonMachine
from repro.systems import build_water_box

pytestmark = pytest.mark.skipif(
    not available(), reason="no C compiler: compiled kernel tier unavailable"
)

CONFIGS = (("numpy", 1), ("compiled", 1), ("compiled", 4))
STEPS = 12
LONG_RANGE_EVERY = 2
assert STEPS // LONG_RANGE_EVERY >= 4  # mesh evaluations per run


def _files(paths):
    return [p.read_bytes() for p in paths]


def _assert_pair_path(calc):
    """Every tier walked: one pair path, whose output scratch exists."""
    assert calc._pair_out is not None


def test_machine_artifacts_identical_through_rebuilds(tmp_path):
    params = MDParams(
        cutoff=4.0, skin=0.1, mesh=(16, 16, 16), kernel_mode="table",
        long_range_every=LONG_RANGE_EVERY, quantize_mesh_bits=40,
    )
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, params, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    out = {}
    for tier, threads in CONFIGS:
        machine = AntonMachine(
            system.copy(), params, n_nodes=8, dt=1.0, backend="vectorized",
            kernel_tier=tier, kernel_threads=threads,
        )
        traj_path = tmp_path / f"{tier}{threads}.traj"
        store = CheckpointStore(tmp_path / f"ck_{tier}{threads}")
        try:
            with machine.open_trajectory(traj_path) as traj:
                machine.run(
                    STEPS, trajectory=traj, trajectory_every=2,
                    checkpoint_store=store, checkpoint_every=4,
                )
            nl = machine.calc.neighbor_list
            assert nl.kernels.tier == tier
            assert nl.n_builds >= 3  # the first build and at least two rebuilds
            _assert_pair_path(machine.calc)
            out[tier, threads] = (
                nl.n_builds,
                _files([traj_path] + [store.path_for(s) for s in store.steps()]),
            )
        finally:
            machine.close()
    assert len(out["numpy", 1][1]) == 1 + STEPS // 4
    for key in CONFIGS[1:]:
        assert out[key] == out["numpy", 1], f"artifacts diverged for {key}"


def _ensemble_artifacts_identical(tmp_path, mesh_bits):
    base = build_water_box(n_molecules=32, seed=5)
    params = MDParams(
        cutoff=min(5.5, base.box.max_cutoff() * 0.9), skin=0.1, mesh=(16, 16, 16),
        long_range_every=LONG_RANGE_EVERY, kernel_mode="table",
        quantize_mesh_bits=mesh_bits,
    )
    minimize_energy(base, params, max_steps=30)
    seeds = derive_replica_seeds(41, 3)
    out = {}
    for tier, threads in CONFIGS:
        ens = EnsembleSimulation(
            base, params, dt=1.0, seeds=seeds, temperature=300.0,
            thermostat=BerendsenThermostat(300.0), constraints=True,
            kernel_tier=tier, kernel_threads=threads,
        )
        root = tmp_path / f"{tier}{threads}"
        paths = [replica_trajectory_path(root / "run.rrs", r) for r in range(3)]
        stores = [replica_checkpoint_store(root / "ck", r, retain=4) for r in range(3)]
        writers = [ens.open_replica_trajectory(p) for p in paths]
        try:
            ens.run(
                STEPS, trajectories=writers, trajectory_every=2,
                checkpoint_stores=stores, checkpoint_every=4,
            )
        finally:
            for w in writers:
                w.close()
        nl = ens.calc.neighbor_list
        assert nl.kernels.tier == tier
        assert nl.n_builds >= 3
        _assert_pair_path(ens.calc)
        out[tier, threads] = (
            nl.n_builds,
            _files(paths + [st.path_for(s) for st in stores for s in st.steps()]),
        )
    assert len(out["numpy", 1][1]) == 3 * (1 + STEPS // 4)
    for key in CONFIGS[1:]:
        assert out[key] == out["numpy", 1], f"artifacts diverged for {key}"


def test_ensemble_artifacts_identical_through_rebuilds(tmp_path):
    """Float mesh: the compiled tier takes the fused, chunk-ordered float
    spread and the fused gather."""
    _ensemble_artifacts_identical(tmp_path, None)


def test_ensemble_quantized_mesh_artifacts_identical(tmp_path):
    """Quantized mesh: the compiled tier takes the fused integer spread."""
    _ensemble_artifacts_identical(tmp_path, 40)


def test_solo_artifacts_identical_with_a_compiled_suite(tmp_path):
    """A solo ``Simulation`` forwards the engine's tier knobs; on the
    compiled tier its force calculator walks."""
    params = MDParams(
        cutoff=4.0, skin=0.1, mesh=(16, 16, 16), kernel_mode="table",
        long_range_every=LONG_RANGE_EVERY,
    )
    system = build_water_box(n_molecules=24, seed=11)
    minimize_energy(system, params, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    out = {}
    for tier, threads in CONFIGS:
        sim = Simulation(
            system.copy(), params, dt=1.0, kernel_tier=tier, kernel_threads=threads
        )
        assert sim.calc.kernels is sim.calc.neighbor_list.kernels is get_suite(tier, threads)
        traj_path = tmp_path / f"{tier}{threads}.traj"
        store = CheckpointStore(tmp_path / f"ck_{tier}{threads}")
        with sim.open_trajectory(traj_path) as traj:
            sim.run(
                STEPS, trajectory=traj, trajectory_every=2,
                checkpoint_store=store, checkpoint_every=4,
            )
        nl = sim.calc.neighbor_list
        assert nl.n_builds >= 3
        _assert_pair_path(sim.calc)
        out[tier, threads] = (
            nl.n_builds,
            _files([traj_path] + [store.path_for(s) for s in store.steps()]),
        )
    assert len(out["numpy", 1][1]) == 1 + STEPS // 4
    for key in CONFIGS[1:]:
        assert out[key] == out["numpy", 1], f"artifacts diverged for {key}"

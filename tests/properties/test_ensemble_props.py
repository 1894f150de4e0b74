"""Property: a batched R-replica run IS R independent solo runs.

The ensemble engine's whole contract in one property: for any base
seed, replica count, and kernel tier, stepping R replicas through the
batched engine yields — per replica — the same state codes, the same
energy records, and the same trajectory *bytes* as R stock
:class:`~repro.core.Simulation` runs seeded identically.  No tolerance
anywhere: the comparison is ``==`` on integers, floats, and files.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy
from repro.ensemble import EnsembleSimulation, derive_replica_seeds
from repro.io.serialize import pack_state
from repro.kernels import available
from repro.systems import build_water_box

TEMPERATURE = 300.0
STEPS = 6
RECORD_EVERY = 2  # multiple of long_range_every: totals are meaningful
TIERS = ["numpy"] + (["compiled"] if available() else [])

_BASE = build_water_box(n_molecules=32, seed=5)
PARAMS = MDParams(
    cutoff=min(5.5, _BASE.box.max_cutoff() * 0.9),
    mesh=(16, 16, 16),
    long_range_every=2,
)
minimize_energy(_BASE, PARAMS, max_steps=30)


def run_solo(seed: int, traj_path) -> tuple:
    ss = _BASE.copy()
    ss.initialize_velocities(TEMPERATURE, seed=seed)
    sim = Simulation(
        ss, PARAMS, dt=1.0,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
    )
    with sim.open_trajectory(traj_path) as traj:
        recs = sim.run(
            STEPS, record_every=RECORD_EVERY,
            trajectory=traj, trajectory_every=RECORD_EVERY,
        )
    return (
        sim.integrator.X.copy(),
        sim.integrator.V.copy(),
        recs,
        pack_state(sim.checkpoint()),
    )


@given(
    replicas=st.integers(1, 3),
    base_seed=st.integers(0, 2**32 - 1),
    tier=st.sampled_from(TIERS),
)
@settings(max_examples=8, deadline=None)
def test_batched_run_equals_solo_runs_bitwise(replicas, base_seed, tier):
    seeds = derive_replica_seeds(base_seed, replicas)
    ens = EnsembleSimulation(
        _BASE, PARAMS, dt=1.0, seeds=seeds, temperature=TEMPERATURE,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
        kernel_tier=tier,
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        writers = [
            ens.open_replica_trajectory(tmp / f"ens{r}.rrs")
            for r in range(replicas)
        ]
        try:
            ens_recs = ens.run(
                STEPS, record_every=RECORD_EVERY,
                trajectories=writers, trajectory_every=RECORD_EVERY,
            )
        finally:
            for w in writers:
                w.close()

        for r in range(replicas):
            solo_x, solo_v, solo_recs, solo_ck = run_solo(
                seeds[r], tmp / f"solo{r}.rrs"
            )
            ens_x, ens_v = ens.state_codes(r)
            np.testing.assert_array_equal(ens_x, solo_x)
            np.testing.assert_array_equal(ens_v, solo_v)
            # EnergyRecord is a plain dataclass: == is exact per field.
            assert ens_recs[r] == solo_recs
            assert (tmp / f"ens{r}.rrs").read_bytes() == (
                tmp / f"solo{r}.rrs"
            ).read_bytes()
            assert pack_state(ens.replica_checkpoint(r)) == solo_ck

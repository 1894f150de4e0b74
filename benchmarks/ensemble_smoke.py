#!/usr/bin/env python
"""Ensemble smoke: R=4 batched run vs 4 solo runs — same bytes.

CI drill of the batched-ensemble contract at the artifact level:

1. Run four solo :class:`~repro.core.Simulation` runs with seeds
   derived from one base seed, each writing a trajectory, rolling
   checkpoints, and an energy log.
2. Run one batched R=4 :class:`~repro.ensemble.EnsembleSimulation`
   from the same seeds, writing per-replica artifacts through the same
   store classes.
3. Compare every artifact **byte for byte**: trajectory files, the
   final checkpoint of each rolling store, and the energy-log JSONL.

A solo ``Simulation`` is the R=1 case of the same engine on the same
(default) kernel tier, so this drill is R=4 against R=1; the engine
against the plain NumPy solo wiring is
``tests/integration/test_solo_engine.py``.  There is no speed gate:
batched-vs-solo throughput is ``ensemble8 steps_per_s`` and
``ensemble.batching_ratio`` in ``benchmarks/perf``.

Exits non-zero on any mismatch.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import BerendsenThermostat, MDParams, Simulation, minimize_energy  # noqa: E402
from repro.ensemble import EnsembleSimulation, derive_replica_seeds  # noqa: E402
from repro.io import CheckpointStore, EnergyLogWriter  # noqa: E402
from repro.io import replica_checkpoint_store, replica_trajectory_path  # noqa: E402
from repro.systems import build_water_box  # noqa: E402

REPLICAS = 4
STEPS = 12
RECORD_EVERY = 2
CHECKPOINT_EVERY = 4
TEMPERATURE = 300.0
BASE_SEED = 17


def prepared_system():
    base = build_water_box(n_molecules=48, seed=BASE_SEED)
    params = MDParams(
        cutoff=min(5.5, base.box.max_cutoff() * 0.9),
        mesh=(16, 16, 16),
        long_range_every=2,
        kernel_mode="table",
    )
    minimize_energy(base, params, max_steps=30)
    return base, params


def run_solo(base, params, seed: int, workdir: Path, tag: str):
    ss = base.copy()
    ss.initialize_velocities(TEMPERATURE, seed=seed)
    sim = Simulation(
        ss, params, dt=1.0,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
    )
    store = CheckpointStore(workdir / f"ck_{tag}")
    writer = EnergyLogWriter(workdir / f"energy_{tag}.jsonl")
    try:
        with sim.open_trajectory(workdir / f"traj_{tag}.rrs") as traj:
            sim.run(
                STEPS, record_every=RECORD_EVERY, energy_writer=writer,
                trajectory=traj, trajectory_every=RECORD_EVERY,
                checkpoint_store=store, checkpoint_every=CHECKPOINT_EVERY,
            )
    finally:
        writer.close()
    return {
        "trajectory": (workdir / f"traj_{tag}.rrs").read_bytes(),
        "checkpoint": store.path_for(store.steps()[-1]).read_bytes(),
        "energy_log": (workdir / f"energy_{tag}.jsonl").read_bytes(),
    }


def run_ensemble(base, params, seeds, workdir: Path):
    ens = EnsembleSimulation(
        base, params, dt=1.0, seeds=list(seeds), temperature=TEMPERATURE,
        thermostat=BerendsenThermostat(TEMPERATURE), constraints=True,
    )
    writers = [
        ens.open_replica_trajectory(replica_trajectory_path(workdir / "ens.rrs", r))
        for r in range(REPLICAS)
    ]
    stores = [
        replica_checkpoint_store(workdir / "ck_ens", r)
        for r in range(REPLICAS)
    ]
    logs = [
        EnergyLogWriter(workdir / f"energy_ens{r}.jsonl")
        for r in range(REPLICAS)
    ]
    try:
        ens.run(
            STEPS, record_every=RECORD_EVERY, energy_writers=logs,
            trajectories=writers, trajectory_every=RECORD_EVERY,
            checkpoint_stores=stores, checkpoint_every=CHECKPOINT_EVERY,
        )
    finally:
        for w in writers:
            w.close()
        for w in logs:
            w.close()
    out = []
    for r in range(REPLICAS):
        store = stores[r]
        out.append({
            "trajectory": replica_trajectory_path(workdir / "ens.rrs", r).read_bytes(),
            "checkpoint": store.path_for(store.steps()[-1]).read_bytes(),
            "energy_log": (workdir / f"energy_ens{r}.jsonl").read_bytes(),
        })
    return out


def main() -> int:
    base, params = prepared_system()
    seeds = derive_replica_seeds(BASE_SEED, REPLICAS)
    print(f"system: {base.n_atoms} atoms/replica, R={REPLICAS}, {STEPS} steps")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        solo = [
            run_solo(base, params, seeds[r], tmp, f"r{r}")
            for r in range(REPLICAS)
        ]
        batched = run_ensemble(base, params, seeds, tmp)
        for r in range(REPLICAS):
            for kind in ("trajectory", "checkpoint", "energy_log"):
                if solo[r][kind] != batched[r][kind]:
                    print(f"FAIL: replica {r} {kind} bytes differ from solo run")
                    return 1
            print(f"replica {r}: trajectory/checkpoint/energy-log bytes match solo")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

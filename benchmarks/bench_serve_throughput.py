#!/usr/bin/env python
"""Service aggregate throughput at 1/2/4 workers vs sequential solo runs.

The serving claim is economic, not latency: pushing N jobs through
``repro serve`` should finish the *set* faster than running the same N
jobs one at a time by hand.  The service earns that two ways —

* **batching**: same-fingerprint fresh jobs fuse into one
  :class:`~repro.ensemble.EnsembleSimulation` pass, paying system
  build + minimization + neighbor-list setup once for the whole group
  instead of once per job;
* **workers in parallel**: independent assignments run in separate
  processes.

Stepping itself is not where the win is: the sequential-solo baseline
is the ordinary ``repro simulate`` path, which since PR 17 is the same
R=1 engine on the same default (compiled) kernel tier the workers use.

This benchmark submits 8 batchable jobs (same spec, different velocity
seeds) to a live server at ``--workers`` 1, 2, and 4, and divides total
steps by the submit-to-all-DONE wall.  The baseline runs the identical
8 jobs sequentially in-process — full artifact writing, per-job
preparation — exactly what a user without the service would do.

Gate (when the compiled tier is available): aggregate steps/sec at
4 workers >= 1.5x the sequential-solo baseline.  Without a C compiler
the gate is recorded as deferred (PR 8 precedent for under-provisioned
hosts); the run still writes the JSON.

Usage:
    python benchmarks/bench_serve_throughput.py          # full run + JSON
    python benchmarks/bench_serve_throughput.py --smoke  # small CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.simulation import Simulation  # noqa: E402
from repro.core.thermostat import BerendsenThermostat  # noqa: E402
from repro.io import (  # noqa: E402
    CheckpointStore,
    EnergyLogWriter,
    job_checkpoint_dir,
    job_energy_log_path,
    job_trajectory_path,
)
from repro.kernels import available as kernels_available  # noqa: E402
from repro.serve import JobSpec, ServeClient, prepare_job_system  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

N_JOBS = 8
WORKER_COUNTS = (1, 2, 4)
HEADLINE_WORKERS = 4
MIN_RATIO = 1.5


def job_specs(waters: int, steps: int) -> list[JobSpec]:
    """8 batch-compatible jobs: one group key, eight velocity seeds."""
    base = dict(waters=waters, steps=steps, record_every=10,
                checkpoint_every=steps)  # one slice: pure throughput
    return [JobSpec(seed=s, name=f"bench-{s}", **base)
            for s in range(1, N_JOBS + 1)]


def env():
    e = os.environ.copy()
    e["PYTHONPATH"] = str(REPO / "src")
    return e


def time_sequential_solo(root: Path, specs: list[JobSpec]) -> float:
    """Wall seconds to run every spec as an ordinary solo Simulation.

    Includes per-job preparation (build + minimize) and full artifact
    writing — the honest cost of not having the service.
    """
    t0 = time.perf_counter()
    for spec in specs:
        system, params = prepare_job_system(spec)
        system.initialize_velocities(spec.temperature, seed=spec.seed)
        sim = Simulation(system, params, dt=spec.dt, mode="fixed",
                         thermostat=BerendsenThermostat(spec.temperature),
                         constraints=True)
        job_dir = root / f"solo-{spec.seed}"
        job_dir.mkdir(parents=True)
        trajectory = sim.open_trajectory(job_trajectory_path(job_dir))
        store = CheckpointStore(job_checkpoint_dir(job_dir), retain=spec.retain)
        writer = EnergyLogWriter(job_energy_log_path(job_dir))
        try:
            for _ in sim.run(spec.steps, record_every=spec.record_every,
                             energy_writer=writer, trajectory=trajectory,
                             trajectory_every=spec.effective_trajectory_every,
                             checkpoint_store=store,
                             checkpoint_every=spec.checkpoint_every):
                pass
            store.save(sim.checkpoint(), sim.integrator.step_count)
        finally:
            trajectory.close()
            writer.close()
    return time.perf_counter() - t0


def start_server(state: Path, workers: int, tier: str | None) -> tuple:
    cmd = [sys.executable, "-m", "repro", "serve", "--dir", str(state),
           "--workers", str(workers)]
    if tier:
        cmd += ["--kernel-tier", tier]
    proc = subprocess.Popen(cmd, env=env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    client = ServeClient(state, timeout=10.0)
    deadline = time.time() + 120
    while True:
        try:
            # The timing window must not include process boot: wait for
            # every worker to report its resolved kernel tier online.
            if all(w["tier"] for w in client.metrics()["workers"]):
                return proc, client
        except Exception:
            pass
        if proc.poll() is not None or time.time() > deadline:
            out = proc.stdout.read() if proc.stdout else ""
            raise SystemExit(f"server failed to start:\n{out}")
        time.sleep(0.1)


def time_service(root: Path, specs: list[JobSpec], workers: int,
                 tier: str | None) -> float:
    """Submit-to-all-DONE wall seconds for one live-server run."""
    state = root / f"w{workers}"
    proc, client = start_server(state, workers, tier)
    try:
        t0 = time.perf_counter()
        ids = [client.submit(s.to_dict())["id"] for s in specs]
        states = client.wait(ids, poll=0.05, timeout=1800)
        wall = time.perf_counter() - t0
        bad = {k: v for k, v in states.items() if v != "DONE"}
        if bad:
            raise SystemExit(f"workers={workers}: jobs did not finish: {bad}")
        for job_id, spec in zip(ids, specs):
            done = client.status(job_id)["steps_done"]
            if done != spec.steps:
                raise SystemExit(
                    f"workers={workers}: {job_id} ran {done} != {spec.steps}")
        client.shutdown()
        proc.wait(timeout=60)
        return wall
    finally:
        if proc.poll() is None:
            proc.kill()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small fast run gating the same 1.5x ratio")
    ap.add_argument("--waters", type=int, default=None)
    ap.add_argument("--steps", type=int, default=None)
    ap.add_argument("--out", type=Path,
                    default=RESULTS / "BENCH_serve_throughput.json")
    args = ap.parse_args(argv)

    waters = args.waters or (8 if args.smoke else 16)
    steps = args.steps or (40 if args.smoke else 400)
    have_compiled = kernels_available()
    tier = "compiled" if have_compiled else None
    cpu_count = os.cpu_count() or 1
    specs = job_specs(waters, steps)
    total_steps = sum(s.steps for s in specs)

    print(f"== serve throughput: {N_JOBS} jobs x {steps} steps, "
          f"{waters} waters, worker tier "
          f"{tier or 'numpy (no C compiler)'}, host cores {cpu_count}")

    with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
        root = Path(tmp)
        solo_wall = time_sequential_solo(root / "solo", specs)
        solo_agg = total_steps / solo_wall
        print(f"   sequential solo: {solo_wall:7.2f} s  "
              f"{solo_agg:8.1f} agg steps/s  (baseline)")

        sweep = []
        for workers in WORKER_COUNTS:
            wall = time_service(root, specs, workers, tier)
            agg = total_steps / wall
            ratio = agg / solo_agg
            print(f"   workers={workers}:       {wall:7.2f} s  "
                  f"{agg:8.1f} agg steps/s  ratio {ratio:5.2f}x")
            sweep.append({
                "workers": workers,
                "wall_seconds": round(wall, 3),
                "aggregate_steps_per_sec": round(agg, 2),
                "ratio_vs_sequential_solo": round(ratio, 3),
            })

    headline = next(e for e in sweep if e["workers"] == HEADLINE_WORKERS)
    gate_evaluated = bool(have_compiled)
    payload = {
        "bench": "serve_throughput",
        "jobs": N_JOBS,
        "steps_per_job": steps,
        "waters": waters,
        "record_every": specs[0].record_every,
        "checkpoint_every": specs[0].checkpoint_every,
        "worker_kernel_tier": tier or "numpy",
        "cpu_count": cpu_count,
        "sequential_solo_wall_seconds": round(solo_wall, 3),
        "sequential_solo_steps_per_sec": round(solo_agg, 2),
        "sweep": sweep,
        "headline": {
            "workers": HEADLINE_WORKERS,
            "ratio_vs_sequential_solo": headline["ratio_vs_sequential_solo"],
            "required_ratio": MIN_RATIO,
            "gate_evaluated": gate_evaluated,
        },
        "notes": (
            "aggregate steps/sec = total job steps / wall.  The service "
            "window runs from first submit to all-DONE on a live "
            "`repro serve` (worker boot excluded; scheduler ticks, socket "
            "round-trips, and journal writes included).  The baseline runs "
            "the identical 8 jobs sequentially as solo Simulations with "
            "full artifact writing and per-job preparation.  All 8 jobs "
            "share one group key, so the scheduler fuses them into one "
            "EnsembleSimulation pass — the speedup comes from batching "
            "amortization plus the workers' compiled kernel tier, not from "
            "host parallelism; on a multi-core host, extra workers add "
            "parallel speedup for jobs that do not batch.  Byte identity "
            "of service artifacts vs solo runs is enforced separately by "
            "benchmarks/serve_smoke.py and the integration suite."
        ),
    }
    if not args.smoke:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")

    ratio = headline["ratio_vs_sequential_solo"]
    if gate_evaluated:
        if ratio < MIN_RATIO:
            raise SystemExit(
                f"FAIL: workers={HEADLINE_WORKERS} ratio {ratio:.2f}x "
                f"< {MIN_RATIO}x vs sequential solo")
    else:
        print("note: compiled tier unavailable — throughput gate deferred "
              "(bitwise contract still enforced by serve_smoke)")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

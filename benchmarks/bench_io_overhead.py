#!/usr/bin/env python
"""Durable-store overhead: trajectory/checkpoint writes vs step time.

A run store is only usable on a long simulation if persisting state is
cheap relative to computing it.  This benchmark steps the functional
machine at the headline node count with and without trajectory output
(plus rolling checkpoints) and reports the write overhead as a fraction
of the bare step time.  Gate (full run): trajectory writes at a
realistic cadence cost < 5% of step time.

``--smoke`` checks what is deterministic — the stored run ends in the
bare run's bits and its trajectory verifies — and only *reports* the
overhead: over six 24-water steps the two timings differ by less than
the host's jitter, and the 5 % line flipped between 0 % and 7 % on
unchanged code.  The gated numbers are the full run's and
``benchmarks/perf``'s ``solo_io`` workload.

Usage:
    python benchmarks/bench_io_overhead.py          # full run + JSON + gate
    python benchmarks/bench_io_overhead.py --smoke  # small CI check, overhead report-only
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import MDParams, minimize_energy  # noqa: E402
from repro.io import CheckpointStore, TrajectoryReader  # noqa: E402
from repro.machine import AntonMachine  # noqa: E402
from repro.systems import build_water_box  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

HEADLINE_NODES = 64
MAX_TRAJECTORY_OVERHEAD = 0.05  # fraction of bare step time


def build_system(n_molecules: int, params: MDParams):
    system = build_water_box(n_molecules=n_molecules, seed=7)
    minimize_energy(system, params, max_steps=30)
    system.initialize_velocities(300.0, seed=8)
    return system


def timed_run(system, params, n_nodes: int, steps: int, workdir: Path | None,
              trajectory_every: int, checkpoint_every: int):
    """Step one machine; return (state codes, wall seconds, traj path)."""
    machine = AntonMachine(
        system.copy(), params, n_nodes=n_nodes, dt=1.0, backend="vectorized"
    )
    try:
        trajectory = None
        store = None
        traj_path = None
        if workdir is not None:
            traj_path = workdir / "run.rrs"
            trajectory = machine.open_trajectory(traj_path)
            store = CheckpointStore(workdir / "ck", retain=2)
        t0 = time.perf_counter()
        machine.run(
            steps,
            trajectory=trajectory,
            trajectory_every=trajectory_every if trajectory else 0,
            checkpoint_store=store,
            checkpoint_every=checkpoint_every if store else 0,
        )
        wall = time.perf_counter() - t0
        if trajectory is not None:
            trajectory.close()
        state = machine.state_codes()
    finally:
        machine.close()
    return state, wall, traj_path


def measure(n_molecules: int, steps: int, trajectory_every: int,
            checkpoint_every: int, repeats: int) -> dict:
    params = MDParams(
        cutoff=4.0, mesh=(16, 16, 16), kernel_mode="table",
        long_range_every=2, quantize_mesh_bits=40,
    )
    system = build_system(n_molecules, params)
    print(f"{system.n_atoms} atoms, {HEADLINE_NODES} nodes, {steps} steps, "
          f"frame every {trajectory_every}, checkpoint every {checkpoint_every}")

    bare_times, store_times = [], []
    bare_state = store_state = None
    n_frames = 0
    for _ in range(repeats):
        bare_state, t, _ = timed_run(
            system, params, HEADLINE_NODES, steps, None, 0, 0
        )
        bare_times.append(t)
        with tempfile.TemporaryDirectory() as tmp:
            store_state, t, traj_path = timed_run(
                system, params, HEADLINE_NODES, steps, Path(tmp),
                trajectory_every, checkpoint_every,
            )
            store_times.append(t)
            with TrajectoryReader(traj_path) as reader:
                n_frames = len(reader)
                assert reader.verify().ok

    # Persisting state must not perturb it.
    identical = all(np.array_equal(a, b) for a, b in zip(bare_state, store_state))
    if not identical:
        raise SystemExit("FAIL: run with trajectory output diverged bitwise")

    bare = min(bare_times)
    with_store = min(store_times)
    overhead = max(0.0, with_store - bare) / bare
    print(f"bare:       {bare / steps * 1e3:8.2f} ms/step")
    print(f"with store: {with_store / steps * 1e3:8.2f} ms/step "
          f"({n_frames} frames)")
    print(f"overhead:   {overhead:6.1%}  (full-run gate < {MAX_TRAJECTORY_OVERHEAD:.0%})")
    return {
        "n_atoms": system.n_atoms,
        "n_nodes": HEADLINE_NODES,
        "steps": steps,
        "trajectory_every": trajectory_every,
        "checkpoint_every": checkpoint_every,
        "n_frames": n_frames,
        "bare_s_per_step": bare / steps,
        "store_s_per_step": with_store / steps,
        "overhead_fraction": overhead,
        "bitwise_identical": identical,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small fast run: bitwise + verify checks, overhead reported only")
    ap.add_argument("--out", type=Path, default=RESULTS / "BENCH_io_overhead.json")
    args = ap.parse_args(argv)

    if args.smoke:
        measure(n_molecules=24, steps=6, trajectory_every=2,
                checkpoint_every=3, repeats=2)
        print("OK (overhead not gated at smoke size)")
        return 0
    result = measure(n_molecules=256, steps=12, trajectory_every=4,
                     checkpoint_every=6, repeats=3)
    payload = {"bench": "io_overhead", **result, "gate": MAX_TRAJECTORY_OVERHEAD}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if result["overhead_fraction"] >= MAX_TRAJECTORY_OVERHEAD:
        raise SystemExit(
            f"FAIL: store overhead {result['overhead_fraction']:.1%} >= "
            f"{MAX_TRAJECTORY_OVERHEAD:.0%} of step time"
        )
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

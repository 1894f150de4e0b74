#!/usr/bin/env python
"""Chaos-recovery smoke: seeded faults at 8 nodes heal to clean bits.

CI drill of the fault-injection subsystem's acceptance bar:

1. Run a clean 8-node machine simulation on each backend; keep its
   final integer state codes and primary traffic statistics.
2. Re-run with a seeded schedule of message drops plus a node crash
   (``drop=0.15, corrupt=0.05, crash=1``, seed 7).
3. Assert recovery actually happened (injected / retry / rollback
   counters all non-zero), the healed run's final state codes are
   **bit-identical** to the clean run's, and its primary traffic
   equals the clean run's exactly (retransmits and replay traffic are
   quarantined in the recovery pool).
4. Assert the serial and vectorized backends produced identical
   recovery counters — the schedule and victim selection are backend-
   invariant by construction.

Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]  # repro; tests.serial_backend

import numpy as np  # noqa: E402

from repro.core import MDParams, minimize_energy  # noqa: E402
from repro.machine import AntonMachine  # noqa: E402
from repro.systems import build_water_box  # noqa: E402
from tests.serial_backend import machine_backend  # noqa: E402

PARAMS = MDParams(
    cutoff=4.0,
    mesh=(16, 16, 16),
    kernel_mode="table",
    long_range_every=2,
    quantize_mesh_bits=40,
)
FAULTS = {"drop": 0.15, "corrupt": 0.05, "crash": 1}
FAULT_SEED = 7
N_NODES = 8
STEPS = 10


def build_system(n_waters: int):
    system = build_water_box(n_molecules=n_waters, seed=11)
    minimize_energy(system, PARAMS, max_steps=30)
    system.initialize_velocities(300.0, seed=12)
    return system


def run(system, backend, faults=None):
    machine = AntonMachine(
        system.copy(), PARAMS, n_nodes=N_NODES, dt=1.0, backend=machine_backend(backend),
        faults=dict(faults) if faults else None, fault_seed=FAULT_SEED,
    )
    try:
        machine.run(STEPS)
        return {
            "codes": machine.state_codes(),
            "traffic": machine.traffic_summary(),
            "report": machine.fault_report(),
            "recovery": machine.recovery_traffic_summary(),
        }
    finally:
        machine.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--waters", type=int, default=24)
    args = ap.parse_args(argv)

    system = build_system(args.waters)
    failures = []
    reports = {}
    for backend in ("serial", "vectorized"):
        print(f"[{backend}] clean run ({N_NODES} nodes, {STEPS} steps)...")
        clean = run(system, backend)
        print(f"[{backend}] chaos run (faults={FAULTS}, seed={FAULT_SEED})...")
        chaos = run(system, backend, faults=FAULTS)
        report = chaos["report"]
        reports[backend] = report
        print(
            f"[{backend}] injected={report['injected']} retries={report['retries']} "
            f"crashes={report['crashes']} rollbacks={report['rollbacks']} "
            f"replayed={report['replayed_steps']} "
            f"retransmit={chaos['recovery']['retransmit']} "
            f"replay={chaos['recovery']['replay']}"
        )

        if not (report["injected"] and report["retries"] and report["rollbacks"]):
            failures.append(f"{backend}: recovery counters not all > 0: {report}")
        x_equal = np.array_equal(clean["codes"][0], chaos["codes"][0])
        v_equal = np.array_equal(clean["codes"][1], chaos["codes"][1])
        if x_equal and v_equal:
            print(f"[{backend}] final state codes: bit-identical to clean run")
        else:
            failures.append(f"{backend}: healed state codes differ from clean run")
        if clean["traffic"] == chaos["traffic"]:
            print(f"[{backend}] primary traffic: exactly the clean run's")
        else:
            failures.append(f"{backend}: primary traffic inflated by recovery")

    if reports["serial"] == reports["vectorized"]:
        print("serial vs vectorized: identical recovery counters")
    else:
        failures.append(
            f"backends disagree on recovery: serial={reports['serial']} "
            f"vectorized={reports['vectorized']}"
        )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

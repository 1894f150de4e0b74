"""The simulated Anton machine: parallel invariance and performance.

Part 1 runs the same chemical system on 1-, 8-, and 64-node simulated
machines and shows (a) the trajectories are bitwise identical (the
paper's parallel-invariance property) and (b) the communication
signature — many small messages per node per step.

Part 2 uses the calibrated performance model to regenerate the Figure 5
rate-vs-size curve for the paper's benchmark systems.

Run:  python examples/machine_scaling.py
"""

import numpy as np

from repro import AntonMachine, MDParams, PerformanceModel, build_water_box, minimize_energy
from repro.systems import TABLE4_SYSTEMS


def main() -> None:
    # --- Part 1: functional machine, bitwise invariance --------------
    base = build_water_box(n_molecules=32, seed=7)
    params = MDParams(cutoff=4.5, mesh=(16, 16, 16))
    minimize_energy(base, params, max_steps=40)
    base.initialize_velocities(300.0, seed=8)

    print("running the same system on three machine sizes...")
    states = {}
    for n_nodes in (1, 8, 64):
        machine = AntonMachine(base.copy(), params, n_nodes=n_nodes, dt=1.0)
        machine.step(8)
        states[n_nodes] = machine.state_codes()
        msgs = machine.messages_per_node_per_step()
        tags = machine.traffic_summary()
        print(f"  {n_nodes:>3} nodes: {msgs:6.1f} messages/node/step "
              f"({', '.join(sorted(t for t in tags if tags[t][0]))})")

    same_8 = np.array_equal(states[1][0], states[8][0])
    same_64 = np.array_equal(states[1][0], states[64][0])
    print(f"trajectory bits identical across machines: {same_8 and same_64}")

    # --- Part 2: performance model (Figure 5) -------------------------
    pm = PerformanceModel()
    print(f"\n{'system':<8} {'atoms':>8} {'us/day':>8} {'paper':>7}")
    for spec in TABLE4_SYSTEMS:
        rate = pm.anton_us_per_day(spec)
        print(f"{spec.name:<8} {spec.n_atoms:>8} {rate:>8.1f} {spec.paper_us_per_day:>7.1f}")
    dhfr_rate = pm.anton_us_per_day(TABLE4_SYSTEMS[1])
    print(f"\nDHFR speedup vs Desmond on a 512-node cluster: "
          f"{pm.speedup_vs_desmond(dhfr_rate):.0f}x")
    print(f"DHFR speedup vs practical (~100 ns/day) clusters: "
          f"{pm.speedup_vs_practical_cluster(dhfr_rate):.0f}x")


if __name__ == "__main__":
    main()

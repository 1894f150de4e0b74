"""Run commands: ``simulate``, ``ensemble``, ``machine``.

Each builds a system and an engine, then holds the run's artifacts
through one :class:`~repro.io.RunSession` (resume, open-or-append,
final checkpoint, close) and steps through the engine's ``run`` — the
one run loop (:mod:`repro.core.runloop`).
"""

from __future__ import annotations

import numpy as np

from repro.cli.common import (
    add_kernel_flags,
    add_store_flags,
    check_node_count,
    open_run,
    open_session,
    print_kernel_tier,
    print_network_report,
)


def add_parsers(sub) -> None:
    p = sub.add_parser("simulate", help="run MD on a benchmark system")
    p.add_argument("--system", default="water", help="water, hp, or a Table 4 name (gpW, DHFR, ...)")
    p.add_argument("--scale", type=float, default=0.05, help="atom-count scale for Table 4 systems")
    p.add_argument("--waters", type=int, default=64, help="molecule count for --system water")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--dt", type=float, default=1.0, help="time step, fs")
    p.add_argument("--mode", choices=("fixed", "float"), default="fixed")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--skin", type=float, default=None,
                   help="Verlet-list buffer radius, A (default: MDParams.skin)")
    p.add_argument("--record-every", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="print per-component wall-time counters after the run "
                        "(fixed mode: the batched engine's phase names — "
                        "ensemble_pair_list, ensemble_range_limited, mesh_*, ...)")
    add_kernel_flags(p)
    add_store_flags(p)

    p = sub.add_parser(
        "ensemble",
        help="run R replicas batched through one engine pass per step",
    )
    p.add_argument("--replicas", type=int, default=4, help="replica count R")
    p.add_argument("--seeds", default=None, metavar="SPEC",
                   help="base seed for splitmix64 derivation, or an explicit "
                        "comma-separated per-replica list (e.g. 1,2,3,4); "
                        "default: derive from --seed")
    p.add_argument("--waters", type=int, default=64, help="water molecule count")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=1.0, help="time step, fs")
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--skin", type=float, default=None,
                   help="Verlet-list buffer radius, A (default: MDParams.skin)")
    p.add_argument("--record-every", type=int, default=20)
    p.add_argument("--seed", type=int, default=0,
                   help="system build seed (also the default --seeds base)")
    add_kernel_flags(p)
    p.add_argument("--detach", type=int, default=None, metavar="R",
                   help="after the run, detach replica R into a solo "
                        "Simulation and verify its state codes match")
    p.add_argument("--timings", action="store_true",
                   help="print per-component wall-time counters after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the hierarchical per-step phase profile as JSON")
    g = p.add_argument_group("per-replica durable store")
    g.add_argument("--trajectory", metavar="PATH",
                   help="write solo-format trajectories to PATH.r000.rrs, ...")
    g.add_argument("--trajectory-every", type=int, default=0, metavar="N",
                   help="steps between frames (default: --record-every)")
    g.add_argument("--checkpoint-dir", metavar="DIR",
                   help="root for per-replica checkpoint stores "
                        "(DIR/replica-000/, ...)")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="steps between checkpoints (0: only a final one)")
    g.add_argument("--retain", type=int, default=4,
                   help="checkpoints kept per replica store (default 4)")

    p = sub.add_parser("machine", help="run the functional Anton machine simulation")
    p.add_argument("--nodes", type=int, default=8, help="power-of-two node count")
    p.add_argument("--waters", type=int, default=32)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--check-invariance", action="store_true",
                   help="also run on 1 node and compare bitwise")
    add_kernel_flags(p)
    p.add_argument("--timings", action="store_true",
                   help="print per-phase machine engine timings after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the hierarchical per-step phase profile as JSON")
    g = p.add_argument_group("fault injection")
    g.add_argument("--faults", metavar="SPEC",
                   help="inject seeded faults, e.g. drop=1e-3,corrupt=1e-3,crash=1 "
                        "(float: per-step probability; int: exact count); the run "
                        "detects, retries, and rolls back — final bits match a "
                        "fault-free run")
    g.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed for the deterministic fault schedule (default 0)")
    g.add_argument("--max-retries", type=int, default=3, metavar="N",
                   help="retransmissions per dead message / heartbeat waits per "
                        "silent node before escalating to rollback (default 3)")
    g = p.add_argument_group("routed network fabric (accounting only — "
                             "bits never change)")
    g.add_argument("--routed", action="store_true",
                   help="expand every message into dimension-ordered per-link "
                        "traversals and report link occupancy/congestion")
    g.add_argument("--multicast", choices=("tree", "unicast"), default="tree",
                   help="NT broadcast accounting: spanning-tree edges (default) "
                        "or one unicast path per destination")
    g.add_argument("--delta-bits", type=int, default=None, metavar="B",
                   help="fixed-point delta compression: charge position/force "
                        "payloads at B bits per 32-bit word (accounting only)")
    add_store_flags(p, energy_log=False)


def cmd_simulate(args) -> int:
    from dataclasses import replace

    from repro import BerendsenThermostat, MDParams, Simulation, minimize_energy
    from repro.ewald import GSEParams
    from repro.systems import benchmark_by_name, build_hp_system, hp_miniprotein, prepare_water_box

    session = open_session(args)
    # A restore replaces the dynamic state wholesale, so system
    # preparation is only needed for fresh runs.
    minimize_steps = 80 if session.loaded is None else 0
    if args.system == "water":
        system, params, e = prepare_water_box(
            args.waters, args.seed, args.cutoff, skin=args.skin, minimize_steps=minimize_steps
        )
    else:
        if args.system == "hp":
            system = build_hp_system(hp_miniprotein(seed=args.seed))
            params = MDParams(cutoff=args.cutoff or 14.0, mesh=(16, 16, 16))
        else:
            spec = benchmark_by_name(args.system)
            system = spec.build(scale=args.scale, seed=args.seed)
            cutoff = args.cutoff or min(spec.cutoff, system.box.max_cutoff() * 0.9)
            mesh = GSEParams.smallest_mesh(system.box, cutoff)
            params = MDParams(cutoff=cutoff, mesh=mesh, long_range_every=2)
        if args.skin is not None:
            params = replace(params, skin=args.skin)
        e = minimize_energy(system, params, max_steps=minimize_steps) if minimize_steps else None
    print(f"system: {system.meta.get('name', args.system)} — {system.n_atoms} atoms, "
          f"box {system.box.lengths[0]:.1f} A, cutoff {params.cutoff:.1f} A, "
          f"skin {params.skin:.1f} A")
    if session.loaded is None:
        print(f"minimized potential energy: {e:.1f} kcal/mol")
        system.initialize_velocities(args.temperature, seed=args.seed + 1)
    sim = Simulation(
        system,
        params,
        dt=args.dt,
        mode=args.mode,
        thermostat=BerendsenThermostat(args.temperature),
        constraints=True,
        kernel_tier=args.kernel_tier,
        kernel_threads=args.kernel_threads,
    )
    if args.mode == "fixed":
        print_kernel_tier(sim.engine.kernels)
    steps = open_run(session, sim.engine, args, energy_log=args.energy_log)
    with session:
        print(f"{'step':>8} {'E_total':>14} {'T (K)':>8}")
        for rec in sim.run(
            steps,
            record_every=args.record_every,
            energy_writer=session.energy_writers[0],
            trajectory=session.trajectories[0],
            trajectory_every=args.trajectory_every or args.record_every,
            checkpoint_store=session.stores[0],
            checkpoint_every=args.checkpoint_every,
        ):
            print(f"{rec.step:>8} {rec.total:>14.4f} {rec.temperature:>8.0f}")
    for final in session.final_checkpoints:
        print(f"final checkpoint: {final}")
    nl = sim.calc.neighbor_list
    print(f"neighbor list: {nl.n_builds} builds / {nl.n_reuses} reuses "
          f"(skin {nl.effective_skin:.1f} A, {nl.n_candidates} cached pairs)")
    if args.timings:
        print("component wall time:")
        for line in sim.timers.summary_lines():
            print(f"  {line}")
    return 0


def cmd_ensemble(args) -> int:
    from repro import BerendsenThermostat
    from repro.ensemble import EnsembleSimulation, parse_seed_spec
    from repro.io import RunSession, replica_checkpoint_store, replica_trajectory_path
    from repro.systems import prepare_water_box

    try:
        seeds = parse_seed_spec(args.seeds, args.replicas, base_seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.detach is not None and not 0 <= args.detach < args.replicas:
        raise SystemExit(f"--detach: replica {args.detach} out of range (R={args.replicas})")
    system, params, e = prepare_water_box(args.waters, args.seed, args.cutoff, skin=args.skin)
    print(f"system: water x{args.replicas} replicas — {system.n_atoms} atoms each "
          f"({system.n_atoms * args.replicas} batched), box {system.box.lengths[0]:.1f} A, "
          f"cutoff {params.cutoff:.1f} A")
    print(f"minimized potential energy: {e:.1f} kcal/mol")
    print(f"replica seeds: {', '.join(str(s) for s in seeds)}")
    ens = EnsembleSimulation(
        system,
        params,
        dt=args.dt,
        seeds=seeds,
        temperature=args.temperature,
        thermostat=BerendsenThermostat(args.temperature),
        constraints=True,
        kernel_tier=args.kernel_tier,
        kernel_threads=args.kernel_threads,
    )
    print_kernel_tier(ens.kernels)

    lanes = range(ens.replicas)
    session = RunSession([
        replica_checkpoint_store(args.checkpoint_dir, r, retain=args.retain)
        if args.checkpoint_dir else None
        for r in lanes
    ])
    session.open(ens, [
        replica_trajectory_path(args.trajectory, r) if args.trajectory else None
        for r in lanes
    ])
    with session:
        print(f"{'step':>8}  " + "  ".join(f"{'E_r%d' % r:>12}" for r in lanes))
        for recs in zip(*ens.run(
            args.steps,
            record_every=args.record_every,
            trajectories=session.trajectories,
            trajectory_every=args.trajectory_every or args.record_every,
            checkpoint_stores=session.stores,
            checkpoint_every=args.checkpoint_every,
        )):
            print(f"{recs[0].step:>8}  " + "  ".join(f"{rec.total:>12.4f}" for rec in recs))
    if session.final_checkpoints:
        print(f"final checkpoints: {session.final_checkpoints[0]} ...")
    temps = [ens.energy_logs[r][-1].temperature if ens.energy_logs[r] else float("nan")
             for r in lanes]
    print("final T (K): " + ", ".join(f"{t:.0f}" for t in temps))
    nl = ens.calc.neighbor_list
    print(f"neighbor list: {nl.n_builds} builds / {nl.n_reuses} reuses "
          f"({nl.n_candidates} cached pairs across replicas)")
    ok = True
    if args.detach is not None:
        solo = ens.detach(args.detach)
        xs, vs = solo.integrator.X, solo.integrator.V
        xe, ve = ens.state_codes(args.detach)
        same = bool(np.array_equal(xs, xe) and np.array_equal(vs, ve))
        print(f"replica {args.detach} detached as a solo Simulation "
              f"(state codes bitwise identical: {same})")
        ok = same
    if args.timings:
        print("component wall time:")
        for line in ens.timers.summary_lines():
            print(f"  {line}")
    if args.profile:
        import json

        print(json.dumps(ens.profile(), indent=2))
    return 0 if ok else 1


def cmd_machine(args) -> int:
    from repro import AntonMachine
    from repro.systems import prepare_water_box

    check_node_count(args.nodes)
    session = open_session(args)
    base, params, _ = prepare_water_box(
        args.waters, 7, cutoff_cap=4.5, long_range_every=1, quantize_mesh_bits=40,
        minimize_steps=40 if session.loaded is None else 0,
    )
    if session.loaded is None:
        base.initialize_velocities(300.0, seed=8)

    fault_kwargs = {}
    if args.faults:
        from repro.fault import RecoveryPolicy, parse_fault_spec

        try:
            spec = parse_fault_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        fault_kwargs = dict(
            faults=spec,
            fault_seed=args.fault_seed,
            recovery=RecoveryPolicy(max_retries=args.max_retries),
        )
    routed = False
    if args.routed:
        from repro.network import RoutedConfig

        routed = RoutedConfig(multicast=args.multicast, delta_bits=args.delta_bits)
    tier = dict(kernel_tier=args.kernel_tier, kernel_threads=args.kernel_threads)
    machine = AntonMachine(
        base.copy(), params, n_nodes=args.nodes, dt=1.0, routed=routed,
        **tier, **fault_kwargs,
    )
    # The 1-node reference starts where the machine starts — the same
    # prepared system or the same loaded checkpoint (restore crosses
    # node counts) — and runs the same steps on the same tier.
    ref = None
    if args.check_invariance:
        ref = AntonMachine(base.copy(), params, n_nodes=1, dt=1.0, **tier)
    try:
        return _run_machine(args, machine, ref, session)
    finally:
        machine.close()
        if ref is not None:
            ref.close()


def _run_machine(args, machine, ref, session) -> int:
    steps = open_run(session, machine, args)
    with session:
        machine.run(
            steps,
            trajectory=session.trajectories[0],
            trajectory_every=args.trajectory_every,
            checkpoint_store=session.stores[0],
            checkpoint_every=args.checkpoint_every,
        )
    for final in session.final_checkpoints:
        print(f"final checkpoint: {final}")
    print(f"{args.nodes}-node machine, {steps} steps "
          f"({machine.topology.dims[0]}x{machine.topology.dims[1]}x{machine.topology.dims[2]} torus), "
          f"{machine.backend.name} backend")
    print_kernel_tier(machine.kernels)
    print(f"messages/node/step: {machine.messages_per_node_per_step():.1f}")
    for tag, (msgs, nbytes) in sorted(machine.traffic_summary().items()):
        print(f"  {tag:<20} {msgs:>8} msgs {nbytes:>12} bytes")
    if args.routed:
        print_network_report(machine.network_report())
    if args.faults:
        report = machine.fault_report()
        recovery = machine.recovery_traffic_summary()
        print(f"fault injection (seed {args.fault_seed}): "
              f"{report['injected']} injected, {report['retries']} retries, "
              f"{report['rollbacks']} rollbacks, "
              f"{report['replayed_steps']} steps replayed")
        for name, count in sorted(report.items()):
            if count:
                print(f"  {name:<22} {count:>8}")
        rt_msgs, rt_bytes = recovery["retransmit"]
        rp_msgs, rp_bytes = recovery["replay"]
        print(f"  recovery traffic: {rt_msgs} retransmit msgs ({rt_bytes} bytes), "
              f"{rp_msgs} replay msgs ({rp_bytes} bytes) — excluded from the "
              f"primary counters above")
    if args.timings:
        for name, secs in sorted(machine.phase_timings().items(), key=lambda kv: -kv[1]):
            print(f"  {name:<20} {secs * 1e3:10.2f} ms")
    if args.profile:
        import json

        print(json.dumps(machine.profile(), indent=2))
    ok = True
    if ref is not None:
        if session.loaded is not None:
            ref.restore(session.loaded[0].state)
        ref.step(steps)
        same = all(
            np.array_equal(a, b) for a, b in zip(machine.state_codes(), ref.state_codes())
        )
        print(f"bitwise identical to the 1-node machine: {same}")
        ok = same
    return 0 if ok else 1


COMMANDS = {"simulate": cmd_simulate, "ensemble": cmd_ensemble, "machine": cmd_machine}

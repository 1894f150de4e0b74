"""Model and inspection commands: ``network``, ``traj``, ``perf``, ``info``."""

from __future__ import annotations

import sys

import numpy as np

from repro.cli.common import check_node_count, print_network_report


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "network",
        help="routed-fabric link report (functional run) or predicted "
             "512-4096 node scaling sweep (--predict)",
    )
    p.add_argument("--nodes", type=int, default=8,
                   help="power-of-two node count for the functional run")
    p.add_argument("--waters", type=int, default=32)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--multicast", choices=("tree", "unicast"), default="tree")
    p.add_argument("--delta-bits", type=int, default=None, metavar="B")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    g = p.add_argument_group("analytic prediction (no functional stepping)")
    g.add_argument("--predict", action="store_true",
                   help="sweep the congested critical-path model over "
                        "--node-counts for a Table 4 system")
    g.add_argument("--system", default="DHFR", help="Table 4 name (with --predict)")
    g.add_argument("--node-counts", default="512,1024,2048,4096", metavar="LIST",
                   help="comma-separated node counts (with --predict)")
    g.add_argument("--bandwidth-scale", type=float, default=1.0, metavar="S",
                   help="scale usable link bandwidth (S < 1 injects congestion)")

    p = sub.add_parser("traj", help="inspect/verify trajectory files")
    p.add_argument("action", choices=("info", "dump", "verify"),
                   help="info: header + frame table; dump: one frame; "
                        "verify: CRC-check every record")
    p.add_argument("path", help="trajectory file")
    p.add_argument("--frame", type=int, default=-1,
                   help="frame index for dump (negative from the end)")
    p.add_argument("--atoms", type=int, default=3,
                   help="atom rows to print for dump")

    p = sub.add_parser("perf", help="performance model queries")
    p.add_argument("--system", default="DHFR", help="Table 4 name or BPTI")
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--profile", action="store_true", help="print the Table 2 style task profile")

    sub.add_parser("info", help="version and experiment index")


def cmd_traj(args) -> int:
    from repro.io import CorruptRecord, TrajectoryReader

    try:
        reader = TrajectoryReader(args.path)
    except FileNotFoundError:
        print(f"{args.path}: no such file", file=sys.stderr)
        return 1
    except CorruptRecord as exc:
        print(str(exc), file=sys.stderr)
        return 1
    with reader:
        if args.action == "info":
            dec = reader.decode
            print(f"{args.path}: {len(reader)} frames "
                  f"({'rebuilt index — torn tail dropped' if reader.index_rebuilt else 'clean index'})")
            if len(reader):
                steps = reader.steps
                print(f"steps {steps[0]}..{steps[-1]}")
            print(f"storage: {dec.get('storage', '?')}"
                  + (f", {dec['position_bits']}-bit positions" if "position_bits" in dec else ""))
            fp = reader.fingerprint
            if fp:
                print(f"fingerprint: {fp.get('n_atoms', '?')} atoms, mode {fp.get('mode', '?')}, "
                      f"dt {fp.get('dt', '?')} fs, system {fp.get('system_hash', '?')[:12]}")
            for key, value in sorted(reader.meta.items()):
                print(f"meta.{key}: {value}")
        elif args.action == "dump":
            try:
                frame = reader.frame(args.frame)
            except IndexError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            pos = reader.positions(frame)
            vel = reader.velocities(frame)
            print(f"frame {args.frame}: step {frame.step}, t = {frame.time_fs:.1f} fs, "
                  f"{len(pos)} atoms")
            print(f"position extent: [{pos.min():.4f}, {pos.max():.4f}] A; "
                  f"|v|_max {np.max(np.abs(vel)):.5f} A/fs")
            for i in range(min(args.atoms, len(pos))):
                print(f"  atom {i}: x = ({pos[i, 0]:12.6f}, {pos[i, 1]:12.6f}, {pos[i, 2]:12.6f})"
                      f"  v = ({vel[i, 0]:9.6f}, {vel[i, 1]:9.6f}, {vel[i, 2]:9.6f})")
        else:  # verify
            report = reader.verify()
            print(f"{args.path}: {report.n_frames} frames")
            print(f"header: {'ok' if report.header_ok else 'BAD'}; "
                  f"index: {'ok' if report.index_ok else 'missing'}; "
                  f"tail: {'clean' if report.clean_tail else 'TORN'}")
            for err in report.errors:
                print(f"  {err}")
            print("verify: PASS" if report.ok else "verify: FAIL")
            return 0 if report.ok else 1
    return 0


def cmd_network(args) -> int:
    import json

    from repro.network import RoutedConfig

    config = RoutedConfig(multicast=args.multicast, delta_bits=args.delta_bits)
    if args.predict:
        from repro import PerformanceModel
        from repro.network import CongestionModel
        from repro.systems import benchmark_by_name

        try:
            node_counts = tuple(int(x) for x in args.node_counts.split(","))
        except ValueError:
            raise SystemExit(
                f"--node-counts: expected comma-separated integers, got {args.node_counts!r}"
            ) from None
        for n in node_counts:
            check_node_count(n, "--node-counts")
        spec = benchmark_by_name(args.system)
        congestion = CongestionModel(bandwidth_scale=args.bandwidth_scale)
        pm = PerformanceModel()
        rows = pm.anton_routed_scaling(
            spec, node_counts=node_counts, config=config, congestion=congestion
        )
        if args.json:
            print(json.dumps(rows, indent=2, default=float))
            return 0
        print(f"{spec.name}: predicted scaling, congested critical-path model "
              f"(bandwidth scale {args.bandwidth_scale})")
        print(f"{'nodes':>6} {'short us':>9} {'long us':>8} {'step us':>8} "
              f"{'us/day routed':>14} {'us/day counter':>15} {'mcast saved':>12}")
        for r in rows:
            print(f"{r['n_nodes']:>6} {r['short_comm_us']:>9.2f} "
                  f"{r['long_comm_us']:>8.2f} {r['step_us_routed']:>8.2f} "
                  f"{r['us_per_day_routed']:>14.2f} {r['us_per_day_counter']:>15.2f} "
                  f"{r['multicast']['saved_link_bytes']:>12}")
        return 0

    from repro import AntonMachine
    from repro.systems import prepare_water_box

    check_node_count(args.nodes)
    base, params, _ = prepare_water_box(
        args.waters, 7, cutoff_cap=4.5, long_range_every=1, minimize_steps=40
    )
    base.initialize_velocities(300.0, seed=8)
    machine = AntonMachine(base, params, n_nodes=args.nodes, dt=1.0, routed=config)
    machine.step(args.steps)
    report = machine.network_report()
    if args.json:
        print(json.dumps(report, indent=2, default=float))
    else:
        print_network_report(report)
    machine.close()
    return 0


def cmd_perf(args) -> int:
    from repro import PerformanceModel
    from repro.systems import benchmark_by_name

    pm = PerformanceModel()
    spec = benchmark_by_name(args.system)
    rate = pm.anton_us_per_day(spec, n_nodes=args.nodes)
    print(f"{spec.name}: {spec.n_atoms} atoms, cutoff {spec.cutoff} A, mesh {spec.mesh}^3")
    print(f"modeled rate on {args.nodes} nodes: {rate:.1f} us/day "
          f"(paper, 512 nodes: {spec.paper_us_per_day})")
    print(f"speedup vs Desmond record: {pm.speedup_vs_desmond(rate):.0f}x; "
          f"vs practical clusters: {pm.speedup_vs_practical_cluster(rate):.0f}x")
    if args.profile:
        from repro.perf import workload_from_spec

        w = workload_from_spec(spec, n_nodes=args.nodes)
        print(f"\nper-node task profile ({args.nodes} nodes), us:")
        for task, t, frac in pm.anton_profile(w, n_nodes=args.nodes).rows():
            print(f"  {task:<24} {t:8.2f}  ({frac:4.0%})")
    return 0


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — functional reproduction of")
    print('  Shaw et al., "Millisecond-Scale Molecular Dynamics Simulations')
    print('  on Anton", SC 2009.')
    print("\nreproduced experiments (see EXPERIMENTS.md):")
    for item in (
        "Table 1  longest published simulations (bench_table1_longest_sims)",
        "Table 2  x86 vs Anton task profiles (bench_table2_profile)",
        "Table 3  NT match efficiency (bench_table3_match_efficiency)",
        "Table 4  force errors / drift / rates (bench_table4_accuracy)",
        "Fig. 3   import-region volumes (bench_figure3_import_volume)",
        "Fig. 4   datapath-width accuracy (bench_figure4_numerics)",
        "Fig. 5   performance vs size (bench_figure5_performance)",
        "Fig. 6   NH order parameters (bench_figure6_order_params)",
        "Fig. 7   folding/unfolding events (bench_figure7_folding)",
        "Sec. 4   determinism / invariance / reversibility (bench_numerics_invariance)",
    ):
        print(f"  {item}")
    print(f"\n{kernel_line()}")
    return 0


def kernel_line() -> str:
    """One line naming the kernel build this process would run on."""
    from repro.kernels import kernel_info

    info = kernel_info()
    line = f"kernel: {info['tier']} (threads: {info['threads']})"
    if info["tier"] == "compiled":
        line += (f", {info['compiler']}, flags {info['flags']}, isa {info['isa']}, "
                 f"rung {info['rung']}, {info['so']}")
    return line


COMMANDS = {"network": cmd_network, "traj": cmd_traj, "perf": cmd_perf, "info": cmd_info}

"""Flag groups and helpers shared by more than one command module."""

from __future__ import annotations


def add_kernel_flags(p) -> None:
    p.add_argument("--kernel-tier", choices=("numpy", "compiled"), default=None,
                   help="hot-loop kernel tier (bitwise identical across tiers); "
                        "default: $REPRO_KERNEL_TIER, else compiled where the C "
                        "extension builds (about 1 s, once) and numpy otherwise")
    p.add_argument("--kernel-threads", type=int, default=None, metavar="T",
                   help="compiled-tier threads farming the lanes of a stacked "
                        "mesh pass (ensemble replicas, serve batches; a single "
                        "system runs single-threaded; bitwise identical for "
                        "every T); default: $REPRO_KERNEL_THREADS or 1")


def check_node_count(n: int, flag: str = "--nodes") -> None:
    """SystemExit unless ``n`` is a torus size the machine supports."""
    from repro.parallel import TorusTopology

    try:
        TorusTopology.for_node_count(n)
    except ValueError as exc:
        raise SystemExit(f"{flag}: {exc}") from exc


def print_kernel_tier(kernels) -> None:
    print(f"kernel tier: {kernels.tier} (threads: {kernels.threads})")


def add_store_flags(p, energy_log: bool = True) -> None:
    g = p.add_argument_group("durable run store")
    g.add_argument("--trajectory", metavar="PATH",
                   help="write a bit-exact binary trajectory to PATH")
    g.add_argument("--trajectory-every", type=int, default=0, metavar="N",
                   help="steps between frames (default: --record-every)")
    g.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory for rolling atomic checkpoints")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="steps between checkpoints (0: only a final one)")
    g.add_argument("--retain", type=int, default=4,
                   help="checkpoints kept in the rolling store (default 4)")
    g.add_argument("--resume", action="store_true",
                   help="resume bit-exactly from the newest valid checkpoint")
    if energy_log:
        g.add_argument("--energy-log", metavar="PATH",
                       help="stream energy records to PATH as JSON lines")


def open_session(args):
    """The run's :class:`~repro.io.RunSession` from the durable-store
    flags (its newest valid snapshot loaded under ``--resume``);
    SystemExit on misuse."""
    from repro.io import CheckpointError, CheckpointStore, RunSession

    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir, retain=args.retain)
    elif args.resume:
        raise SystemExit("--resume requires --checkpoint-dir")
    try:
        session = RunSession([store], resume=args.resume)
    except CheckpointError as exc:
        raise SystemExit(str(exc)) from exc
    for loaded in session.loaded or ():
        for path, why in loaded.skipped:
            print(f"warning: skipped corrupt snapshot {path}: {why}")
    return session


def open_run(session, engine, args, energy_log=None) -> int:
    """Bind ``--trajectory`` (and ``energy_log``) to ``engine`` through
    the session; returns the steps of ``--steps`` that remain."""
    done = session.open(engine, [args.trajectory], [energy_log])
    steps = max(0, args.steps - done)
    if session.loaded is not None:
        print(f"resumed from {session.loaded[0].path} at step {done} ({steps} steps remain)")
    return steps


def print_network_report(report: dict) -> None:
    dims = "x".join(str(d) for d in report["topology"])
    print(f"routed fabric: {dims} torus, {report['links']} directed links, "
          f"{report['steps']} steps "
          f"(multicast={report['multicast_mode']}, delta_bits={report['delta_bits']})")
    print(f"{'phase':<18} {'msgs':>8} {'link bytes':>12} {'max link':>10} "
          f"{'hops':>5} {'us/step':>8}  busiest")
    for tag, ph in report["phases"].items():
        busiest = "-"
        if ph["busiest_link"]:
            busiest = f"node {ph['busiest_link'][0]} {ph['busiest_link'][1]}"
        print(f"{tag:<18} {ph['messages']:>8} {ph['link_bytes']:>12} "
              f"{ph['max_link_bytes']:>10} {ph['max_hops']:>5} "
              f"{ph['time_us_per_step']:>8.3f}  {busiest}")
    mc = report["multicast"]
    if mc["unicast_link_bytes"]:
        saved_pct = 100.0 * mc["saved_link_bytes"] / mc["unicast_link_bytes"]
        print(f"multicast: {mc['tree_link_bytes']} tree vs "
              f"{mc['unicast_link_bytes']} unicast link bytes "
              f"({saved_pct:.0f}% saved)")
    if report["compression_saved_link_bytes"]:
        print(f"compression saved: {report['compression_saved_link_bytes']} link bytes")
    if report["recovery_link_bytes"]:
        print(f"recovery link bytes (segregated): {report['recovery_link_bytes']}")
    print(f"comm critical path: {report['comm_us_per_step']:.3f} us/step "
          f"(max link load: {report['max_link_bytes']} bytes)")


def print_timings(timers) -> None:
    """The ``--timings`` block shared by the run commands."""
    print("component wall time:")
    for line in timers.summary_lines():
        print(f"  {line}")

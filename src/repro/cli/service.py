"""Service commands: ``serve`` and its clients ``submit``, ``jobs``, ``cancel``."""

from __future__ import annotations

import os
import signal
import sys

from repro.cli.common import add_kernel_flags


def add_parsers(sub) -> None:
    p = sub.add_parser("serve", help="run the multi-run simulation service")
    p.add_argument("--dir", required=True, metavar="STATE",
                   help="state directory (durable queue, socket, job artifacts)")
    p.add_argument("--workers", type=int, default=2, help="worker processes")
    p.add_argument("--max-batch", type=int, default=8,
                   help="max same-system jobs fused into one engine pass")
    add_kernel_flags(p)
    p.add_argument("--idle-exit", type=float, default=0.0, metavar="SEC",
                   help="exit SEC seconds after every job is terminal "
                        "(0: serve until shutdown)")

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("--name", default="", help="job id (default: job-NNNN)")
    p.add_argument("--priority", type=int, default=0,
                   help="scheduling priority (higher preempts lower)")
    p.add_argument("--waters", type=int, default=64)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=300.0)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--seed", type=int, default=0, help="velocity seed (run identity)")
    p.add_argument("--build-seed", type=int, default=0, help="system build seed")
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--trajectory-every", type=int, default=0,
                   help="steps between frames (default: --record-every)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="steps per slice / between checkpoints (0: one slice)")
    p.add_argument("--retain", type=int, default=4)
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")

    p = sub.add_parser("jobs", help="list jobs on a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("--watch", action="store_true",
                   help="refresh until every job is terminal")
    p.add_argument("--metrics", action="store_true",
                   help="also print pool metrics as JSON")

    p = sub.add_parser("cancel", help="cancel a job on a running service")
    p.add_argument("--dir", required=True, metavar="STATE", help="state directory")
    p.add_argument("id", help="job id to cancel")


def cmd_serve(args) -> int:
    from repro.serve import ServeConfig, Server

    config = ServeConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        kernel_tier=args.kernel_tier,
        kernel_threads=args.kernel_threads,
        idle_exit=args.idle_exit,
    )
    server = Server(args.dir, config)
    owner = os.getpid()

    def on_sigterm(signum, _frame):
        # SIGTERM stops the service as Ctrl-C does: serve_forever returns
        # after the current tick and closes the server on its way out.  A
        # worker forked after this point inherits the handler; there the
        # signal keeps its default meaning (Server.close terminates a
        # worker that ignores "stop").
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        server.request_shutdown()

    signal.signal(signal.SIGTERM, on_sigterm)
    print(f"serving on {server.sock_path} — {config.workers} workers, "
          f"max batch {config.max_batch} (pid {os.getpid()})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeUnavailable
    from repro.serve.jobs import JobSpec

    try:
        spec = JobSpec(
            waters=args.waters, build_seed=args.build_seed, steps=args.steps,
            dt=args.dt, temperature=args.temperature, seed=args.seed,
            priority=args.priority, cutoff=args.cutoff,
            record_every=args.record_every,
            trajectory_every=args.trajectory_every,
            checkpoint_every=args.checkpoint_every,
            retain=args.retain, name=args.name,
        )
    except ValueError as exc:
        raise SystemExit(f"bad job spec: {exc}") from exc
    client = ServeClient(args.dir)
    try:
        resp = client.submit(spec.to_dict())
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc
    print(f"submitted {resp['id']} (arrival {resp['arrival']}, "
          f"priority {spec.priority}, {spec.steps} steps)")
    if args.wait:
        states = client.wait([resp["id"]])
        job = client.status(resp["id"])
        print(f"{resp['id']}: {states[resp['id']]} — {job['steps_done']} steps, "
              f"artifacts in {job['artifact_dir']}")
        return 0 if states[resp["id"]] == "DONE" else 1
    return 0


def _job_table(jobs: list[dict]) -> list[str]:
    head = (f"{'id':<14} {'state':<10} {'pri':>3} {'steps':>11} "
            f"{'pre':>3} {'rec':>3} {'wait s':>7} {'steps/s':>8}")
    lines = [head, "-" * len(head)]
    for j in jobs:
        lines.append(
            f"{j['id']:<14} {j['state']:<10} {j['priority']:>3} "
            f"{j['steps_done']:>5}/{j['steps']:<5} "
            f"{j['preemptions']:>3} {j['recoveries']:>3} "
            f"{j['queue_wait_s']:>7.2f} {j.get('steps_per_s', 0.0):>8.2f}"
        )
    return lines


def cmd_jobs(args) -> int:
    import json as _json
    import time as _time

    from repro.serve import ServeClient, ServeUnavailable
    from repro.serve.jobs import TERMINAL_STATES

    client = ServeClient(args.dir)
    try:
        while True:
            jobs = client.jobs()
            out = _job_table(jobs)
            if args.watch:
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(out))
            if args.metrics:
                print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
            if not args.watch or (jobs and all(
                    j["state"] in TERMINAL_STATES for j in jobs)):
                return 0
            _time.sleep(0.5)
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc


def cmd_cancel(args) -> int:
    from repro.serve import ServeClient, ServeUnavailable

    try:
        resp = ServeClient(args.dir).cancel(args.id)
    except (ServeUnavailable, RuntimeError) as exc:
        raise SystemExit(str(exc)) from exc
    print(f"{args.id}: {resp['state']}")
    return 0


COMMANDS = {"serve": cmd_serve, "submit": cmd_submit, "jobs": cmd_jobs, "cancel": cmd_cancel}

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate   build a benchmark system (at reduced scale) and run MD
ensemble   batch R replicas through one engine pass per step
machine    run the functional multi-node machine and report traffic
serve      run the multi-run simulation service (durable queue + workers)
submit     submit a job to a running service
jobs       list jobs on a running service (--watch to follow)
cancel     cancel a job on a running service
network    routed-fabric link occupancy report / predicted scaling sweep
traj       inspect, dump, or CRC-verify a trajectory file
perf       print the performance model's Table 2 profile / Figure 5 rate
info       version, paper reference, and reproduced-experiment index

One module per command group: :mod:`repro.cli.run` (simulate, ensemble,
machine), :mod:`repro.cli.service` (serve and its clients),
:mod:`repro.cli.report` (network, traj, perf, info); flag groups more
than one of them uses are in :mod:`repro.cli.common`.

Long runs persist through the durable run store (``--trajectory``,
``--checkpoint-dir``/``--checkpoint-every``, ``--energy-log``) and
resume bit-exactly with ``--resume``.  The machine survives injected
faults (``--faults drop=1e-3,crash=1 --fault-seed 7``): message faults
are detected by checksums and healed by retransmission, node crashes
roll back to the newest valid checkpoint and replay — without changing
a single bit of the trajectory (combine with ``--check-invariance`` to
verify).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import report, run, service

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for group in (run, service, report):
        group.add_parsers(sub)
        commands.update(group.COMMANDS)
    args = parser.parse_args(argv)
    # A bad kernel flag or REPRO_KERNEL_* variable ends the command here,
    # in one line, before any system is built or worker spawned.
    from repro.kernels import get_suite

    try:
        get_suite(getattr(args, "kernel_tier", None), getattr(args, "kernel_threads", None))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    try:
        status = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
    except BrokenPipeError:
        # The reader is gone (``repro jobs | head``): what is left of
        # stdout goes to devnull, so the interpreter's own flush at exit
        # cannot fail again, and the command ends as Python ends on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status

#!/usr/bin/env python3
"""The repo's performance benchmark: four workloads, one command.

    python benchmarks/perf/run.py                      # every workload, end to end
    python benchmarks/perf/run.py --workload machine64 --seed 3
    python benchmarks/perf/run.py --workload ensemble8 --trace   # per-layer pass
    python benchmarks/perf/run.py --selfcheck 3        # two run sets must agree
    python benchmarks/perf/run.py --quick              # tiny sizes, < 40 s, smoke only

The end-to-end pass runs with tracing off, prints every end-to-end
metric by name with its unit, checks the program's outputs, and exits
non-zero if a check failed.  ``--trace`` runs the separate traced pass
that yields the per-layer metrics.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

See README.md in this directory for what each workload and metric
means and how they are predicted to interact.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import metrics  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _why in metrics.WORKLOADS)
DEFAULT_SECONDS = 20

#: The measurement environment every workload process runs in.
#:
#: Allocator: glibc normally serves each large NumPy temporary from a
#: fresh ``mmap`` and unmaps it on free, so every neighbour rebuild
#: page-faults hundreds of MB back in.  On a virtualised host the cost
#: of such a fault swings by more than 10x with what the hypervisor is
#: doing; measured here, identical 48-step windows took 9.5-15.0 s with
#: the default allocator and 13.5-13.8 s with memory kept in the heap
#: (no mmap, no trim).  The faults are confined to set-up and warm-up
#: instead, where ``setup_s`` reports them.
#: Threads: one, everywhere — all load comes from the one harness process.
BENCH_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
    "MALLOC_TOP_PAD_": str(64 << 20),
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL_THREADS": "1",
}


def enter_bench_env() -> None:
    """Re-exec once with :data:`BENCH_ENV` (allocator knobs are read at
    process start, so they cannot be set from inside)."""
    if all(os.environ.get(k) == v for k, v in BENCH_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **BENCH_ENV})


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=0,
                    help="offsets system-build, velocity and job-stream seeds")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="nominal measured seconds; sets the (deterministic) step "
                         "and job counts — see README.md")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: traced pass, per-layer metrics; 0: end-to-end pass")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes for smoke tests; numbers are never comparable")
    ap.add_argument("--selfcheck", type=int, nargs="?", const=3, default=0, metavar="K",
                    help="two sets of K end-to-end passes; fail if set medians disagree "
                         "by more than a metric's bound")
    return ap.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """Run one workload in this process; returns its :class:`common.Result`."""
    common.require_repro()
    module = importlib.import_module(f"workloads.{name}")
    tracer = None
    if trace:
        from trace import Tracer

        tracer = Tracer(name)
        tracer.install()
    try:
        result = module.run(seed, seconds, quick=quick, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        common.OUT.mkdir(exist_ok=True)
        tracer.dump(common.OUT / f"trace_{name}.json", seed)
    return result


def report(result, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result object."""
    tag = " [quick: NOT comparable]" if result.quick else ""
    print(f"== {result.workload}  seed {result.seed}  "
          f"{'traced (per-layer)' if trace else 'end-to-end'} pass{tag}")
    out: dict[str, dict] = {}
    if trace:
        for name, unit, _better in metrics.PER_LAYER:
            value = result.layers.get(name)
            shown = "n/a (layer not exercised by this workload)" if value is None \
                else f"{value:.6g} {unit}"
            print(f"  {name:<44} {shown}")
            # The result line must carry every per-layer metric; a layer
            # this workload does not exercise reads 0.
            out[name] = {"value": 0.0 if value is None else float(value), "unit": unit}
    else:
        for name, unit, better, bound in metrics.END_TO_END:
            value = result.end_to_end[name]
            print(f"  {name:<14} {value:14.6f} {unit:<4} ({better} is better, "
                  f"bound {bound:.0%})")
            out[name] = {"value": float(value), "unit": unit}
        ratio = result.failed / max(result.attempted, 1)
        print(f"  {'fail_ratio':<14} {ratio:14.6f} ratio ({result.failed} of "
              f"{result.attempted} checked operations failed)")
    for key, value in sorted(result.counts.items()):
        print(f"  count {key:<38} {value}")
    if result.digest:
        print(f"  final-state sha256 {result.digest}")
    for note in result.notes:
        print(f"  note: {note}")
    return {
        "correct": result.failed == 0,
        "attempted": int(max(result.attempted, 1)),
        "failed": int(result.failed),
        "metrics": out,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(args.selfcheck, args.seed, args.seconds, args.quick)
    if args.workload is None:
        common.require_repro()
        worst = 0
        summary = {}
        for name in WORKLOAD_NAMES:
            code, lines, line = common.spawn_workload(
                name, args.seed, args.seconds, args.trace, args.quick)
            print("\n".join(lines if line is None else lines[:-1]))
            worst = max(worst, code)
            summary[name] = line
        print(json.dumps(summary))
        return worst
    enter_bench_env()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    line = report(result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

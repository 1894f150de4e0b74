#!/usr/bin/env python
"""Crash-recovery smoke: SIGKILL a run mid-flight, resume, compare bits.

End-to-end drills of the durable run store's recovery contract.  A
reference simulation runs to completion; then, twice, an identical run
is started in a child process and SIGKILLed mid-step — no atexit
handlers, no flushing, exactly the failure a multi-month run must
survive — resumed via the CLI (`--resume`), and its trajectory, final
checkpoint and energy log compared with the reference **byte for
byte**:

* ``torn`` — killed once two checkpoints exist, and the newest snapshot
  is then corrupted (a tear in the very write the kill interrupted):
  the store must fall back to the newest *valid* snapshot, truncate the
  trajectory's torn tail, the post-checkpoint frames and the
  post-checkpoint energy records, and finish the run.
* ``newest`` — killed as soon as the first checkpoint appears and
  resumed from that very checkpoint, nothing torn: the frames up to it
  must already be on disk, which they are only because the run loop
  flushes trajectories before a checkpoint lands.

Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

STEPS = 16
CHECKPOINT_EVERY = 4


def run_flags(workdir: Path, steps: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "simulate",
        "--system", "water", "--waters", "24",
        "--steps", str(steps), "--record-every", "4",
        "--trajectory", str(workdir / "run.rrs"), "--trajectory-every", "2",
        "--checkpoint-dir", str(workdir / "ck"),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
        "--energy-log", str(workdir / "energy.jsonl"),
    ]


def env():
    e = os.environ.copy()
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), e.get("PYTHONPATH")]))
    return e


def start_and_kill(workdir: Path, checkpoints: int) -> None:
    """Launch the run and SIGKILL it once ``checkpoints`` snapshots exist."""
    proc = subprocess.Popen(
        run_flags(workdir, STEPS), env=env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    ck = workdir / "ck"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit("FAIL: run finished before it could be killed; "
                             "raise STEPS or lower CHECKPOINT_EVERY")
        if ck.is_dir() and len(list(ck.glob("ckpt-*.rrs"))) >= checkpoints:
            break
        time.sleep(0.005)
    else:
        raise SystemExit(f"FAIL: {checkpoints} checkpoint(s) did not appear within 120 s")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    print(f"killed run with SIGKILL; store holds steps "
          f"{[p.name for p in sorted(ck.glob('ckpt-*.rrs'))]}")


def corrupt_newest(workdir: Path) -> Path:
    snaps = sorted((workdir / "ck").glob("ckpt-*.rrs"))
    newest = snaps[-1]
    raw = newest.read_bytes()
    newest.write_bytes(raw[: max(8, len(raw) - 64)])
    print(f"tore the newest snapshot: {newest.name}")
    return newest


def drill(name: str, ref_dir: Path, crash_dir: Path, tear: bool) -> list[str]:
    """Kill, (tear,) resume, compare; returns the artifacts that differ."""
    crash_dir.mkdir(parents=True)
    print(f"[{name}] crash run (to be killed)...")
    # With a tear, two checkpoints so a valid one remains.
    start_and_kill(crash_dir, checkpoints=2 if tear else 1)
    if tear:
        corrupt_newest(crash_dir)

    print(f"[{name}] resuming from the newest valid snapshot...")
    out = subprocess.run(
        run_flags(crash_dir, STEPS) + ["--resume"], env=env(), check=True,
        capture_output=True, text=True,
    ).stdout
    resumed_line = next(line for line in out.splitlines() if "resumed from" in line)
    print(f"  {resumed_line}")

    failures = []
    for artifact in ("run.rrs", f"ck/ckpt-{STEPS:012d}.rrs", "energy.jsonl"):
        if (crash_dir / artifact).read_bytes() == (ref_dir / artifact).read_bytes():
            print(f"[{name}] {artifact}: byte-identical to the uninterrupted run")
        else:
            failures.append(f"{name}:{artifact}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--keep", action="store_true", help="keep the work dirs")
    args = ap.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="crash-smoke-"))
    ref_dir = tmp / "ref"
    ref_dir.mkdir(parents=True)

    print("reference run (uninterrupted)...")
    subprocess.run(run_flags(ref_dir, STEPS), env=env(), check=True,
                   stdout=subprocess.DEVNULL)

    failures = drill("torn", ref_dir, tmp / "torn", tear=True)
    failures += drill("newest", ref_dir, tmp / "newest", tear=False)

    if not args.keep:
        import shutil

        shutil.rmtree(tmp)
    if failures:
        raise SystemExit(f"FAIL: recovered artifacts differ: {failures}")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

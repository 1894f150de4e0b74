#!/usr/bin/env python
"""Serve smoke: concurrent clients, worker SIGKILL, server SIGKILL, bits.

End-to-end drill of the simulation service's contract:

1. Start ``repro serve`` (2 workers) on a fresh state directory.
2. Submit 7 jobs through **concurrent** ``repro submit`` CLI clients —
   two batchable groups, two long low-priority slot-fillers.
3. Once both long jobs pin the pool, queue a same-group ``trio`` behind
   them (it cannot start until a long job ends, so whenever it does all
   three are pending and fuse into one R=3 pass), then submit a
   high-priority job (forces a preemption) and SIGKILL one worker
   process (forces a requeue + bit-exact resume).
4. SIGKILL the *server* itself mid-run of the recovered job, then
   restart it on the same state directory: the durable queue must
   replay, requeue orphaned RUNNING jobs, and lose/duplicate nothing.
5. Once the trio runs, cancel one member: the whole assignment stops
   at its slice boundary, the cancelled job ends CANCELLED and the
   other two — checkpointed at the same step — must be re-dispatched
   **together** (a batched resume, read off the server's
   ``batched_resumes`` metric).
6. Wait for every job to finish and compare each job's trajectory,
   final checkpoint set, and energy log against a same-seed solo
   :class:`Simulation` run **byte for byte**.

Exits non-zero on any mismatch, lost job, or missing batched resume.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.simulation import Simulation  # noqa: E402
from repro.core.thermostat import BerendsenThermostat  # noqa: E402
from repro.io import (  # noqa: E402
    CheckpointStore,
    EnergyLogWriter,
    job_checkpoint_dir,
    job_energy_log_path,
    job_trajectory_path,
)
from repro.kernels import get_suite  # noqa: E402
from repro.serve import (  # noqa: E402
    TERMINAL_STATES,
    JobSpec,
    ServeClient,
    prepare_job_system,
)

BASE = dict(waters=8, record_every=2, checkpoint_every=2)


def job_specs(long_scale: int = 1) -> list[JobSpec]:
    """11 mixed jobs: two long slot-fillers, two batchable groups, a
    high-priority job and the trio.  The long jobs have different step
    counts so they never batch: they pin both workers, making the
    hi-pri preemption deterministic.  ``long_scale`` stretches the long
    jobs and the trio so the fault sequence fits inside their runtime
    on faster kernel tiers."""
    specs = [JobSpec(steps=400 * long_scale, seed=6, name="long-a",
                     priority=0, **BASE),
             JobSpec(steps=300 * long_scale, seed=9, name="long-b",
                     priority=0, **BASE)]
    specs += [JobSpec(steps=6, seed=s, name=f"grp-a-{s}", **BASE) for s in (1, 2, 3)]
    specs += [JobSpec(steps=8, seed=s, name=f"grp-b-{s}", **BASE) for s in (4, 5)]
    specs += [JobSpec(steps=6, seed=8, name="hi-pri", priority=5, **BASE)]
    specs += [JobSpec(steps=100 * long_scale, seed=s, name=f"trio-{s}", **BASE)
              for s in (11, 12, 13)]
    return specs


def env():
    e = os.environ.copy()
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), e.get("PYTHONPATH")]))
    return e


def submit_cmd(state: Path, spec: JobSpec) -> list[str]:
    return [
        sys.executable, "-m", "repro", "submit", "--dir", str(state),
        "--name", spec.name, "--priority", str(spec.priority),
        "--waters", str(spec.waters), "--steps", str(spec.steps),
        "--seed", str(spec.seed),
        "--record-every", str(spec.record_every),
        "--checkpoint-every", str(spec.checkpoint_every),
    ]


def start_server(state: Path, kernel_tier: str | None = None) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "serve", "--dir", str(state),
           "--workers", "2"]
    if kernel_tier:
        cmd += ["--kernel-tier", kernel_tier]
    proc = subprocess.Popen(
        cmd, env=env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServeClient(state, timeout=10.0)
    deadline = time.time() + 60
    while True:
        try:
            client.ping()
            return proc
        except Exception:
            if proc.poll() is not None or time.time() > deadline:
                out = proc.stdout.read() if proc.stdout else ""
                raise SystemExit(f"server failed to start:\n{out}")
            time.sleep(0.2)


def wait_running(client: ServeClient, job_id: str, min_steps: int,
                 timeout: float = 180.0, min_recoveries: int = 0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = client.status(job_id)
        if (job["state"] == "RUNNING" and job["steps_done"] >= min_steps
                and job["recoveries"] >= min_recoveries):
            return
        if job["state"] == "DONE":
            raise SystemExit(f"{job_id} finished before the fault landed")
        time.sleep(0.1)
    raise SystemExit(f"{job_id} never reached RUNNING with {min_steps} steps")


def journal_tail(state: Path, job_id: str, n: int = 6) -> list[str]:
    """The last ``n`` journal events of one job (read-only scan)."""
    from repro.io import unpack_state
    from repro.io.records import REC_STATE, scan_records

    lines = []
    with open(state / "queue.rrs", "rb") as f:
        for _offset, _end, rtype, payload in scan_records(f):
            if rtype != REC_STATE:
                continue
            event = unpack_state(payload)
            if event.get("id") == job_id:
                lines.append(" ".join(str(event[k]) for k in
                                      ("event", "to", "reason", "fields") if k in event))
    return lines[-n:]


def solo_reference(root: Path, spec: JobSpec) -> Path:
    system, params = prepare_job_system(spec)
    system.initialize_velocities(spec.temperature, seed=spec.seed)
    sim = Simulation(system, params, dt=spec.dt, mode="fixed",
                     thermostat=BerendsenThermostat(spec.temperature),
                     constraints=True)
    ref = root / spec.name
    ref.mkdir(parents=True)
    trajectory = sim.open_trajectory(job_trajectory_path(ref))
    store = CheckpointStore(job_checkpoint_dir(ref), retain=spec.retain)
    writer = EnergyLogWriter(job_energy_log_path(ref))
    try:
        for _ in sim.run(spec.steps, record_every=spec.record_every,
                         energy_writer=writer, trajectory=trajectory,
                         trajectory_every=spec.effective_trajectory_every,
                         checkpoint_store=store,
                         checkpoint_every=spec.checkpoint_every):
            pass
        store.save(sim.checkpoint(), sim.integrator.step_count)
    finally:
        trajectory.close()
        writer.close()
    return ref


def compare(job_dir: Path, ref_dir: Path, label: str) -> list[str]:
    problems = []
    for what, path_of in (("trajectory", job_trajectory_path),
                          ("energy log", job_energy_log_path)):
        if path_of(job_dir).read_bytes() != path_of(ref_dir).read_bytes():
            problems.append(f"{label}: {what} differs")
    names = sorted(p.name for p in job_checkpoint_dir(job_dir).iterdir())
    ref_names = sorted(p.name for p in job_checkpoint_dir(ref_dir).iterdir())
    if names != ref_names:
        problems.append(f"{label}: checkpoint set {names} != {ref_names}")
    else:
        for n in names:
            if (job_checkpoint_dir(job_dir) / n).read_bytes() != \
                    (job_checkpoint_dir(ref_dir) / n).read_bytes():
                problems.append(f"{label}: checkpoint {n} differs")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--keep", action="store_true")
    parser.add_argument("--kernel-tier", choices=("numpy", "compiled"),
                        default=None,
                        help="worker kernel tier (solo references always run "
                             "numpy, so 'compiled' checks cross-tier bytes)")
    args = parser.parse_args()

    import tempfile

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="serve-smoke-"))
    state = workdir / "state"
    # The workers' tier with no flag is the resolver's default —
    # compiled wherever it builds — and the long jobs must outlast the
    # fault sequence on whichever tier actually runs them.
    tier = get_suite(args.kernel_tier).tier
    specs = job_specs(long_scale=4 if tier == "compiled" else 1)
    by_name = {s.name: s for s in specs}

    print(f"== serve smoke in {workdir}"
          + (f" (kernel tier: {args.kernel_tier})" if args.kernel_tier else ""))
    server = start_server(state, args.kernel_tier)
    client = ServeClient(state, timeout=10.0)

    # Concurrent CLI clients: the first 7 jobs race through the socket.
    trio = [s.name for s in specs if s.name.startswith("trio-")]
    first = [s for s in specs if s.name != "hi-pri" and s.name not in trio]
    clients = [subprocess.Popen(submit_cmd(state, s), env=env(),
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
               for s in first]
    for proc, spec in zip(clients, first):
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"submit {spec.name} failed:\n{out.decode()}")
    print(f"   submitted {len(first)} jobs from concurrent clients")

    # Fault 1: with both workers pinned by the long jobs, a
    # high-priority arrival must preempt one of them.
    wait_running(client, "long-a", min_steps=2)
    wait_running(client, "long-b", min_steps=2)
    # Queued behind a pinned pool at priority 0, the trio starts only
    # when a long job ends — by then all three are pending, so they
    # fuse, whatever the faults below do in between.
    for name in trio:
        client.submit(by_name[name].to_dict())
    subprocess.run(submit_cmd(state, by_name["hi-pri"]), env=env(), check=True,
                   stdout=subprocess.DEVNULL)
    print("   submitted hi-pri (priority 5) against a fully busy pool")
    deadline = time.time() + 180
    while time.time() < deadline:
        if any(client.status(n)["preemptions"] for n in ("long-a", "long-b")):
            break
        time.sleep(0.1)
    else:
        snapshot = [(j["id"], j["state"], j["steps_done"], j.get("error", ""))
                    for j in client.jobs()]
        raise SystemExit(f"hi-pri never preempted a long job: {snapshot}")

    # Fault 2: SIGKILL the worker running long-a.
    wait_running(client, "long-a", min_steps=4)
    victim = None
    for w in client.metrics()["workers"]:
        if "long-a" in w["jobs"]:
            victim = w["pid"]
    if victim:
        os.kill(victim, signal.SIGKILL)
        print(f"   SIGKILLed worker pid {victim} (running long-a)")

    # Fault 3: SIGKILL the whole server, then restart on the same state.
    # The kill must land mid-run of the *recovered* long-a: straight
    # after fault 2 the server still shows the dead worker's RUNNING.
    wait_running(client, "long-a", min_steps=8, min_recoveries=1 if victim else 0)
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=30)
    time.sleep(0.5)
    server = start_server(state, args.kernel_tier)
    client = ServeClient(state, timeout=10.0)
    listed = {j["id"] for j in client.jobs()}
    if listed != set(by_name):
        raise SystemExit(f"restart lost/duplicated jobs: {sorted(listed)}")
    print("   SIGKILLed server; restart replayed all "
          f"{len(listed)} jobs from the journal")

    # Batched resume: cancel one lane of the running trio.  The whole
    # assignment stops at its slice boundary; the two survivors come
    # back pending at one step and must be dispatched together.
    cancelled = trio[-1]
    wait_running(client, trio[0], min_steps=2, timeout=300.0)
    client.cancel(cancelled)
    print(f"   cancelled {cancelled} out of the running trio")

    try:
        states = client.wait(list(by_name), poll=0.3, timeout=120)
    except TimeoutError as exc:
        for job in client.jobs():
            if job["state"] not in TERMINAL_STATES:
                print(f"   !! {job['id']}: {job['state']} at step "
                      f"{job['steps_done']}/{job['steps']}; journal tail:")
                for line in journal_tail(state, job["id"]):
                    print(f"        {line}")
        raise SystemExit(str(exc))
    expected = {name: "CANCELLED" if name == cancelled else "DONE" for name in by_name}
    if states != expected:
        wrong = {k: v for k, v in states.items() if v != expected[k]}
        raise SystemExit(f"jobs did not finish as expected: {wrong}")
    jobs = {j["id"]: j for j in client.jobs()}
    metrics = client.metrics()
    preempted = sum(j["preemptions"] for j in jobs.values())
    recovered = sum(j["recoveries"] for j in jobs.values())
    print(f"   all {len(states)} jobs terminal; pool saw "
          f"{preempted} preemptions, {recovered} recoveries, "
          f"{metrics['batched_resumes']} batched resumes; workers prepared "
          f"{metrics['prepare_misses']} systems cold, {metrics['prepare_hits']} "
          f"from cache ({metrics['prepare_seconds']:.2f} s)")
    if not preempted or not recovered:
        raise SystemExit("expected at least one preemption and one recovery")
    if not metrics["batched_resumes"]:
        raise SystemExit("no dispatch resumed >= 2 jobs together")
    client.shutdown()
    server.wait(timeout=30)

    print("== byte comparison vs same-seed solo runs")
    problems = []
    refs = workdir / "refs"
    for name, spec in by_name.items():
        if name == cancelled:
            continue  # stopped part-way by design: nothing to compare
        ref = solo_reference(refs, spec)
        found = compare(Path(jobs[name]["artifact_dir"]), ref, name)
        problems += found
        print(f"   {name:<10} {'MISMATCH' if found else 'byte-identical'}")
    for p in problems:
        print("   !!", p)

    if not args.keep and not problems:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
    print(f"== serve smoke: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""``serve_mix`` — a live job service under a closed loop of mixed jobs.

``repro serve --workers 1 --max-batch 8 --kernel-tier compiled`` driven
by one ``ServeClient``: a seeded stream of jobs, 75 % ``small`` (16
waters, 200 steps, ``checkpoint_every=100``, priority 0) and every
fourth one ``urgent`` (32 waters, 100 steps, ``checkpoint_every=50``,
priority 5).

**Closed loop**, 8 jobs outstanding: the next job is submitted only when
one finishes, so a slower service receives less load and no backlog can
grow.  The client polls ``jobs`` every 20 ms; turnaround is submit ->
first poll that shows the job ``DONE``.

The only workload where ``serve`` (journal, scheduler, dispatch,
per-dispatch ``prepare_job_system``, preemption -> solo resume) and
``systems``/``core.minimize`` set-up dominate and per-step compute is
small.  Its work runs in a forked worker on the other vCPU; the host
probes are taken by the polling harness (see :func:`_hot_probe`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import probe as hostprobe
from common import OUT, REPO, Result, median, peak_rss_mb

NAME = "serve_mix"
OUTSTANDING = 8
POLL_S = 0.020
#: One hot probe per this many polls (~0.4 s): ~2.5 % load on the vCPU
#: the worker is not using.
PROBE_EVERY_POLLS = 20
#: What a hot probe in this mostly-sleeping process reads, relative to a
#: probe inside an engine window, on the reference host.  Frozen; it only
#: keeps ``serve_mix``'s normalised numbers near its raw ones there.
HOT_PROBE_RATIO = 1.6
BOOTS = 3
RUN_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sizing:
    small: dict
    urgent: dict
    jobs_per_second: float
    min_jobs: int
    key: str


FULL = Sizing(
    small=dict(waters=16, steps=200, checkpoint_every=100, priority=0),
    urgent=dict(waters=32, steps=100, checkpoint_every=50, priority=5),
    jobs_per_second=1.6, min_jobs=12, key="full",
)
QUICK = Sizing(
    small=dict(waters=8, steps=20, checkpoint_every=10, priority=0),
    urgent=dict(waters=12, steps=10, checkpoint_every=10, priority=5),
    jobs_per_second=0.5, min_jobs=4, key="quick",
)


def n_jobs(sz: Sizing, seconds: float) -> int:
    """Job count: a multiple of 4, so exactly a quarter are urgent."""
    return max(sz.min_jobs, 4 * round(seconds * sz.jobs_per_second / 4))


def job_stream(sz: Sizing, seed: int, count: int) -> list[dict]:
    """The seeded job mix: every fourth job urgent.

    ``seed`` sets every job's velocity seed — the per-run identity the
    service exists to vary — and nothing else.  Not *where* the urgent
    jobs fall: their positions decide how many batches are preempted
    and resumed solo, and with shuffled positions throughput ran from
    137 to 382 job-steps/s across ten seeds of identical code.  Not the
    system-build seed either: every dispatch minimises its system for
    up to 80 iterations, how many it needs depends on the box, and with
    per-seed boxes throughput still spread by 25 %.  Either would make
    each seed a different workload instead of a repeat of one.
    """
    return [
        dict(sz.urgent if i % 4 == 3 else sz.small,
             seed=1000 * seed + i, name=f"job-{i}")
        for i in range(count)
    ]


class _Server:
    """One ``repro serve`` process over a state directory under ``out/``."""

    def __init__(self, name: str):
        from repro.serve import ServeClient

        OUT.mkdir(exist_ok=True)
        self.state = OUT / name
        shutil.rmtree(self.state, ignore_errors=True)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        self.log = open(OUT / f"{name}.log", "w")
        t0 = perf_counter()
        # cwd + relative --dir keep the unix socket path short whatever
        # the checkout's own path is (sun_path holds 108 bytes).
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dir", name, "--workers", "1",
             "--max-batch", str(OUTSTANDING), "--kernel-tier", "compiled"],
            cwd=OUT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServeClient(os.path.relpath(self.state), timeout=10.0)
        self.worker_pids: list[int] = []
        deadline = time.monotonic() + 60.0
        while True:
            try:
                workers = self.client.metrics()["workers"]
                if workers and all(w["tier"] for w in workers):
                    self.worker_pids = [w["pid"] for w in workers]
                    self.tier = workers[0]["tier"]
                    break
            except (OSError, RuntimeError, ValueError):
                pass  # not listening yet
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve failed to start; see {self.log.name}")
            time.sleep(POLL_S)
        self.boot_s = perf_counter() - t0

    def stop(self) -> None:
        """Shut down, and do not return until server and workers are gone."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, RuntimeError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.log.close()
        deadline = time.monotonic() + 10.0
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(POLL_S)
            if _alive(pid):
                os.kill(pid, 9)


def _hot_probe() -> float:
    """A probe for a harness that otherwise sleeps.

    Between polls this process is idle, so a lone probe mostly measures
    the wake-up (cold caches, a parked core) and barely moves with the
    host: the first of a burst is discarded and the faster of the next
    two kept.  Measured over ten same-seed runs while the host slowed
    by up to 18 %, dividing by these probes cut the spread (IQR over
    median) of ``steps_per_s`` from 11 % to 6 %.
    """
    hostprobe.probe()
    return min(hostprobe.probe(), hostprobe.probe()) / HOT_PROBE_RATIO


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # exists, someone else's
    return True


def run(seed: int, seconds: float, quick: bool = False, tracer=None) -> Result:
    from repro.io import TrajectoryReader, job_trajectory_path

    sz = QUICK if quick else FULL
    res = Result(NAME, seed, quick)
    specs = job_stream(sz, seed, n_jobs(sz, seconds))
    name = f"serve_s{seed}_{sz.key}"

    # -- set-up: server start until the worker reports its tier ------------
    # (raw: a boot is process start, imports and a fork — half of it
    # waiting on the kernel — and the probes of a harness that has not
    # started polling yet say little about it)
    boots = []
    for k in range(BOOTS):
        server = _Server(name)
        boots.append(server.boot_s)
        if k < BOOTS - 1:
            server.stop()
    try:
        if server.tier != "compiled":
            print("benchmark error: serve worker fell back to the numpy tier",
                  file=sys.stderr)
            raise SystemExit(2)
        stream = _drive(server.client, specs, trace=tracer is not None)
        jobs = {j["id"]: j for j in server.client.jobs()}
        metrics = server.client.metrics()
        journal_bytes = (server.state / "queue.rrs").stat().st_size
    finally:
        server.stop()

    total_steps = sum(s["steps"] for s in specs)
    probes = stream["probes"] or [_hot_probe()]
    turnaround_s = median(stream["turnaround_s"].values())
    res.end_to_end = {
        "steps_per_s": total_steps / hostprobe.normalise(stream["wall_s"], probes),
        "cycle_ms_p50": 1e3 * hostprobe.normalise(turnaround_s, probes),
        "setup_s": median(boots),
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    if hostprobe.probe_cv(probes) > hostprobe.NOISY_CV:
        res.notes.append(f"noisy_host: probe spread {hostprobe.probe_cv(probes):.3f} > "
                         f"{hostprobe.NOISY_CV}; numbers are suspect")
    for job_id, spec in stream["submitted"].items():
        job = jobs.get(job_id, {})
        ok = job.get("state") == "DONE" and job.get("steps_done") == spec["steps"]
        res.check(ok, f"job {job_id}: state {job.get('state')} "
                      f"steps {job.get('steps_done')}/{spec['steps']}")
        if ok:
            # artifact_dir is relative to the server's working directory.
            with TrajectoryReader(job_trajectory_path(OUT / job["artifact_dir"])) as reader:
                res.check(reader.verify().ok, f"job {job_id}: trajectory fails verify")
    res.counts.update({
        "jobs": len(specs),
        "job_steps": total_steps,
        "dispatches": int(metrics["dispatches"]),
        "preemptions": int(metrics["preemptions"]),
        "slices": int(metrics["slices"]),
    })
    if tracer is not None:
        _layers(res, stream, probes, total_steps, turnaround_s, jobs, metrics,
                journal_bytes, specs, sz)
    shutil.rmtree(server.state, ignore_errors=True)
    return res


def _drive(client, specs: list[dict], trace: bool) -> dict:
    """The closed loop.  Returns timings keyed by job id."""
    from repro.serve.jobs import TERMINAL_STATES

    pending = list(specs)
    submitted: dict[str, dict] = {}
    submit_at: dict[str, float] = {}
    turnaround: dict[str, float] = {}
    submit_rtt, jobs_rtt, probes, busy = [], [], [], []

    def submit_next():
        spec = pending.pop(0)
        t0 = perf_counter()
        job_id = client.submit(spec)["id"]
        submit_rtt.append(perf_counter() - t0)
        submitted[job_id] = spec
        submit_at[job_id] = t0

    start = perf_counter()
    for _ in range(min(OUTSTANDING, len(pending))):
        submit_next()
    polls = 0
    last_done = start
    while len(turnaround) < len(specs):
        if perf_counter() - start > RUN_TIMEOUT_S:
            break  # unfinished jobs fail their checks
        time.sleep(POLL_S)
        polls += 1
        t0 = perf_counter()
        views = client.jobs()
        now = perf_counter()
        jobs_rtt.append(now - t0)
        for view in views:
            job_id = view["id"]
            if job_id in submit_at and job_id not in turnaround \
                    and view["state"] in TERMINAL_STATES:
                turnaround[job_id] = now - submit_at[job_id]
                last_done = now
                if pending:
                    submit_next()
        if polls % PROBE_EVERY_POLLS == 0:
            probes.append(_hot_probe())
        if trace and polls % 5 == 0:
            busy.append(bool(client.metrics()["workers"][0]["busy"]))
    return {
        "wall_s": last_done - start,
        "submitted": submitted,
        "turnaround_s": turnaround or {"none": RUN_TIMEOUT_S},
        "submit_rtt_s": submit_rtt,
        "jobs_rtt_s": jobs_rtt,
        "probes": probes,
        "busy": busy,
    }


def _layers(res, stream, probes, total_steps, turnaround_s, jobs, metrics,
            journal_bytes, specs, sz) -> None:
    from repro.serve import JobQueue, JobSpec, plan, prepare_job_system

    L = res.layers
    L["host.probe_ms_p50"] = 1e3 * median(probes)
    L["host.probe_cv"] = hostprobe.probe_cv(probes)
    L["host.nproc"] = float(os.cpu_count() or 1)
    L["host.reruns"] = 0.0  # a live service cannot be re-measured from the same state
    L["raw.steps_per_s"] = total_steps / stream["wall_s"]
    L["raw.cycle_ms_p50"] = 1e3 * turnaround_s
    L["raw.setup_s"] = L["serve.boot_s"] = res.end_to_end["setup_s"]
    L["serve.submit_rtt_ms_p50"] = 1e3 * median(stream["submit_rtt_s"])
    L["serve.jobs_rtt_ms_p50"] = 1e3 * median(stream["jobs_rtt_s"])
    L["serve.queue_wait_ms_p50"] = 1e3 * median(j["queue_wait_s"] for j in jobs.values())
    L["serve.dispatches"] = float(metrics["dispatches"])
    L["serve.preemptions"] = float(metrics["preemptions"])
    L["serve.slices"] = float(metrics["slices"])
    # Every dispatch carries >= 1 job; a job is dispatched once plus once
    # per preemption or recovery.
    job_dispatches = sum(1 + j["preemptions"] + j["recoveries"] for j in jobs.values())
    L["serve.batch_size_mean"] = job_dispatches / max(metrics["dispatches"], 1)
    if stream["busy"]:
        L["serve.worker_busy_frac"] = sum(stream["busy"]) / len(stream["busy"])
    L["serve.journal_bytes_per_job"] = journal_bytes / len(specs)

    # In-process calls into the same public functions the server uses.
    small = JobSpec(**{**specs[0], **sz.small, "name": "probe-small"})
    p = hostprobe.probe_block()
    t0 = perf_counter()
    prepare_job_system(small)
    L["serve.prepare_ms"] = 1e3 * hostprobe.normalise(perf_counter() - t0, p)
    scratch = OUT / "serve_journal_probe"
    shutil.rmtree(scratch, ignore_errors=True)
    appends = []
    with JobQueue(scratch) as queue:
        for i, spec in enumerate(specs):
            t0 = perf_counter()
            queue.submit(JobSpec(**{**spec, "name": f"q{i}"}))
            appends.append(perf_counter() - t0)
        L["serve.journal_append_ms_p50"] = 1e3 * median(appends)
        reps = 200
        t0 = perf_counter()
        for _ in range(reps):
            plan(queue.jobs, 1, [], OUTSTANDING)
        L["serve.plan_us"] = (perf_counter() - t0) / reps * 1e6
    shutil.rmtree(scratch, ignore_errors=True)

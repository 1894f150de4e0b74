"""Worker pool: multiprocess execution of job assignments in slices.

A worker is one OS process running :func:`worker_main`: it resolves
its kernel suite **once** (per process, not per job slice — one
:func:`repro.kernels.get_suite` call whose suite every assignment runs
on, with any ``KernelBuildError`` fallback warning captured and
forwarded to the server exactly once), then loops on its command queue
executing assignments.

Execution model
---------------
An assignment is 1+ jobs of one batch group *at one step*, run through
one :class:`~repro.ensemble.EnsembleSimulation` pass (R = batch size —
each replica bit-identical to its solo run on every kernel tier).  New
and resumed work take the same path: lanes at step 0 start from the
prepared system, lanes with progress are resumed together through the
durable-run session (:class:`~repro.io.RunSession`: every lane's newest
valid checkpoint restored into the R-lane engine, its trajectory and
energy log reopened with the torn / past-checkpoint output truncated) —
so a preempted batch comes back as a batch, on the worker's kernel
tier.  The engine has one clock: an assignment whose lanes claim
different progress is refused, and when the lanes' newest *valid*
checkpoints disagree (one fell back to an older snapshot) the worker
runs nothing and reports ``preempted`` with each lane's true step, so
the server requeues them and the scheduler regroups by progress.

The prepared system (build + minimization on the worker's default
kernel tier: ~0.05-0.2 s for a water box of 8-64 molecules, several
times that on the NumPy tier — comparable to a slice) is a pure function of
:meth:`JobSpec.prepare_key`, so each worker process prepares a distinct
system once and keeps it in a small LRU (:class:`PreparedSystems`);
every dispatch takes a deep copy, never the resident object.  A
campaign of seeds over one system costs one preparation per worker.

Work proceeds in **slices of exactly the checkpoint cadence**: every
slice boundary coincides with a durable checkpoint save by the run
loop (frames flushed first), so

* preemption (requested between slices) needs no special checkpoint —
  the state is already on disk, and the requeued jobs resume from it
  bit-exactly;
* a SIGKILLed worker loses at most one slice of progress; the jobs are
  requeued and their artifacts heal to byte-identity on resume.

:func:`execute_assignment` is the in-process core (used directly by
tests and benchmarks); :func:`worker_main` wraps it in the process /
queue plumbing.
"""

from __future__ import annotations

import copy
import os
import time
import traceback
import warnings
from collections import OrderedDict
from queue import Empty

from repro.serve.jobs import JobSpec, prepare_job_system

__all__ = [
    "execute_assignment",
    "worker_main",
    "AssignmentJob",
    "SliceOutcome",
    "PreparedSystems",
]


class AssignmentJob:
    """One job as shipped to a worker: spec + artifact paths + progress."""

    __slots__ = ("id", "spec", "artifact_dir", "steps_done")

    def __init__(self, id: str, spec: JobSpec, artifact_dir: str, steps_done: int = 0):
        self.id = id
        self.spec = spec
        self.artifact_dir = artifact_dir
        self.steps_done = int(steps_done)

    def to_dict(self) -> dict:
        return {"id": self.id, "spec": self.spec.to_dict(),
                "artifact_dir": self.artifact_dir, "steps_done": self.steps_done}

    @classmethod
    def from_dict(cls, d: dict) -> "AssignmentJob":
        return cls(id=d["id"], spec=JobSpec.from_dict(d["spec"]),
                   artifact_dir=d["artifact_dir"], steps_done=d.get("steps_done", 0))


class SliceOutcome:
    """Result of :func:`execute_assignment`.

    ``prepare_seconds`` / ``prepared_from_cache`` say what this
    dispatch paid for its prepared system (observational only).
    """

    __slots__ = ("status", "steps_done", "error", "prepare_seconds",
                 "prepared_from_cache")

    def __init__(self, status: str, steps_done: dict[str, int], error: str = "",
                 prepare_seconds: float = 0.0, prepared_from_cache: bool = False):
        self.status = status  # "done" | "preempted" | "failed"
        self.steps_done = steps_done
        self.error = error
        self.prepare_seconds = prepare_seconds
        self.prepared_from_cache = prepared_from_cache


class PreparedSystems:
    """A worker's resident prepared systems: a small LRU keyed by
    :meth:`JobSpec.prepare_key`.

    :func:`prepare_job_system` is deterministic in exactly that key, so
    a hit hands out the same bits a fresh preparation would.  Every
    :meth:`checkout` returns a deep copy: nothing a dispatch does to
    its system can reach the resident entry or a later dispatch.
    """

    #: Distinct systems kept per worker (a prepared water box is tens
    #: of kB; the bound only stops an endless stream of distinct
    #: systems from growing the process).
    BOUND = 8

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def checkout(self, spec: JobSpec):
        """``(system, params, hit)`` — an independent copy for one dispatch."""
        key = spec.prepare_key()
        hit = key in self._entries
        if hit:
            self._entries.move_to_end(key)
        else:
            self._entries[key] = prepare_job_system(spec)
            if len(self._entries) > self.BOUND:
                self._entries.popitem(last=False)
        system, params = self._entries[key]
        return copy.deepcopy(system), params, hit  # MDParams is frozen


def _run_batch(jobs, control, progress, kernels, prepared):
    """One EnsembleSimulation pass over a batch, from step 0 or resumed.

    All lanes claim one ``steps_done`` (checked by the caller).  Lanes
    with progress enter the loop through a resumed
    :class:`~repro.io.RunSession`: each lane's newest valid checkpoint
    restored into the R-lane engine, its artifacts reopened with the
    torn / past-checkpoint output truncated.
    """
    from pathlib import Path

    from repro.core.thermostat import BerendsenThermostat
    from repro.ensemble import EnsembleSimulation
    from repro.io import (
        CheckpointError,
        CheckpointStore,
        CorruptRecord,
        RunSession,
        job_checkpoint_dir,
        job_energy_log_path,
        job_trajectory_path,
    )

    spec = jobs[0].spec
    t0 = time.perf_counter()
    system, params, hit = prepared.checkout(spec)
    paid = {"prepare_seconds": time.perf_counter() - t0, "prepared_from_cache": hit}

    dirs = [Path(j.artifact_dir) for j in jobs]
    stores = [  # creating a store creates its job's artifact directory
        CheckpointStore(job_checkpoint_dir(d), retain=j.spec.retain)
        for d, j in zip(dirs, jobs)
    ]
    session = RunSession(stores)
    if jobs[0].steps_done > 0:
        try:
            session = RunSession(stores, resume=True)
            restored = [loaded.step for loaded in session.loaded]
        except CheckpointError:
            # Some lane has nothing durable (killed before its first
            # snapshot, or every snapshot torn): that lane is at step 0,
            # the "run-start baseline" rung of the recovery ladder, and
            # if every lane is, the fresh session above starts them over.
            restored = [_restored_step(store) for store in stores]
        if len(set(restored)) > 1:
            # The engine has one clock and the lanes' newest valid
            # snapshots disagree: run nothing, report where each lane
            # really is, and let the scheduler regroup by progress.
            return SliceOutcome(
                "preempted", {j.id: step for j, step in zip(jobs, restored)}, **paid)

    ens = EnsembleSimulation(
        system, params, dt=spec.dt,
        seeds=[j.spec.seed for j in jobs],
        temperature=spec.temperature,
        thermostat=BerendsenThermostat(spec.temperature),
        constraints=True,
        kernel_tier=kernels.tier, kernel_threads=kernels.threads,
    )
    try:
        step = session.open(
            ens,
            [job_trajectory_path(d) for d in dirs],
            [job_energy_log_path(d) for d in dirs],
        )
    except CorruptRecord:  # pragma: no cover - externally damaged file
        # A trajectory unreadable even at the header: nothing to append
        # to.  The loop's flush-before-checkpoint order makes this
        # unreachable from a worker SIGKILL, so it means external
        # damage — regenerate the whole artifact set from step 0
        # (bit-exact, just slower).
        for j in jobs:
            j.steps_done = 0
        return _run_batch(jobs, control, progress, kernels, prepared)

    # Slices end exactly on the checkpoint cadence, so the state a
    # preempted job resumes from is already durable when control() is
    # polled; the session's exit writes the final checkpoint only when
    # the last step is off the cadence.
    with session:
        done = {j.id: step for j in jobs}
        while step < spec.steps:
            n = min(spec.slice_steps, spec.steps - step)
            ens.run(
                n, record_every=spec.record_every,
                energy_writers=session.energy_writers,
                trajectories=session.trajectories,
                trajectory_every=spec.effective_trajectory_every,
                checkpoint_stores=session.stores,
                checkpoint_every=spec.checkpoint_every,
            )
            step += n
            for j in jobs:
                done[j.id] = step
            if progress is not None:
                progress(dict(done))
            if step < spec.steps and control is not None and control() == "preempt":
                return SliceOutcome("preempted", done, **paid)
        return SliceOutcome("done", done, **paid)


def _restored_step(store) -> int:
    """Step of a lane's newest valid snapshot (0: none survived)."""
    from repro.io import CheckpointError

    try:
        return store.load_latest().step
    except CheckpointError:
        return 0


def execute_assignment(jobs, kernels, control=None, progress=None, prepared=None):
    """Run one assignment to completion, preemption, or failure.

    ``jobs`` is a list of :class:`AssignmentJob` sharing one
    ``steps_done``, run on the suite ``kernels`` (a worker's, resolved
    once per process by :func:`worker_main`); ``control`` is a
    zero-argument callable polled between slices (return ``"preempt"``
    to stop after the current slice); ``progress`` receives a
    ``{job_id: steps_done}`` dict after every slice.  ``prepared`` is the
    worker's :class:`PreparedSystems` (default: an empty one, i.e. a
    cold preparation).
    """
    if prepared is None:
        prepared = PreparedSystems()
    try:
        claimed = {j.id: j.steps_done for j in jobs}
        if len(set(claimed.values())) > 1:
            raise ValueError(f"lanes of one batch must share one steps_done: {claimed}")
        return _run_batch(list(jobs), control, progress, kernels, prepared)
    except Exception:
        return SliceOutcome(
            "failed",
            {j.id: j.steps_done for j in jobs},
            error=traceback.format_exc(limit=8),
        )


# -- process entry point -----------------------------------------------------


def worker_main(worker_id: int, cmd_q, evt_q, kernel_tier, kernel_threads,
                parent_pid: int, idle_poll: float = 0.2) -> None:
    """Worker process: resolve kernels once, keep prepared systems
    resident, then serve assignments.

    Exits when told to stop, or when the parent process disappears
    (``getppid`` changed — an orphan after a server SIGKILL must not
    keep mutating artifacts a restarted server will reschedule).
    """
    from repro.kernels import get_suite, kernel_info

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernels = get_suite(kernel_tier, kernel_threads)
    # Every event carries this process incarnation's pid: mp.Queue can
    # surface a SIGKILLed worker's buffered events after the server has
    # already spawned a replacement into the same slot, and the server
    # must be able to tell the two apart.
    pid = os.getpid()
    prepared = PreparedSystems()
    evt_q.put({"evt": "online", "worker": worker_id, "pid": pid,
               "kernel": kernel_info(kernels.tier, kernels.threads),
               "warnings": [str(w.message) for w in caught]})

    def drain_cmds() -> list[dict]:
        out = []
        while True:
            try:
                out.append(cmd_q.get_nowait())
            except Empty:
                return out

    pending_cmds: list[dict] = []
    while True:
        if pending_cmds:
            msg = pending_cmds.pop(0)
        else:
            try:
                msg = cmd_q.get(timeout=idle_poll)
            except Empty:
                if os.getppid() != parent_pid:
                    return
                continue
        if msg.get("cmd") == "stop":
            return
        if msg.get("cmd") != "run":
            continue

        jobs = [AssignmentJob.from_dict(d) for d in msg["jobs"]]
        job_ids = {j.id for j in jobs}
        evt_q.put({"evt": "started", "worker": worker_id, "pid": pid,
                   "jobs": [j.id for j in jobs], "wall": time.time()})
        t0 = time.time()
        state = {"preempt": False}

        def control() -> str | None:
            if os.getppid() != parent_pid:
                os._exit(1)  # orphaned mid-run: stop touching artifacts
            for cmd in drain_cmds():
                if cmd.get("cmd") == "preempt":
                    # A preempt tagged for a different assignment is a
                    # stale leftover — obeying it would churn this one.
                    if cmd.get("jobs") is None or job_ids.issuperset(cmd["jobs"]):
                        state["preempt"] = True
                elif cmd.get("cmd") == "stop":
                    state["preempt"] = True
                    pending_cmds.append(cmd)
                elif cmd.get("cmd") == "run":
                    # Never drop work: hold it for the idle loop rather
                    # than leaving its jobs RUNNING with no worker.
                    pending_cmds.append(cmd)
            return "preempt" if state["preempt"] else None

        def progress(done: dict) -> None:
            evt_q.put({"evt": "slice", "worker": worker_id, "pid": pid,
                       "steps": done, "wall": time.time()})

        outcome = execute_assignment(jobs, kernels, control=control,
                                     progress=progress, prepared=prepared)
        evt_q.put({
            "evt": outcome.status,  # "done" | "preempted" | "failed"
            "worker": worker_id,
            "pid": pid,
            "jobs": [j.id for j in jobs],
            "steps": outcome.steps_done,
            "error": outcome.error,
            "prepare_seconds": outcome.prepare_seconds,
            "prepared_from_cache": outcome.prepared_from_cache,
            "seconds": time.time() - t0,
            "wall": time.time(),
        })

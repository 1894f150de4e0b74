"""Job model for the multi-run simulation service.

A *job* is one requested MD run: a :class:`JobSpec` (what to simulate,
for how many steps, from which seed, at what priority) plus mutable
scheduling state (:class:`Job`).  The spec is deliberately a closed
recipe — system family, build parameters, force parameters, cadences —
rather than a pickled system object, so that

* the queue can serialize it through the run store's tagged binary
  format (:func:`repro.io.pack_state`) and replay it after a server
  SIGKILL;
* any worker (or the verification harness) can rebuild the *identical*
  prepared system from the spec alone: the build / minimize /
  velocity-draw sequence below is exactly the solo CLI's, so a job's
  artifacts are byte-comparable to a plain same-seed
  :class:`~repro.core.simulation.Simulation` run;
* two jobs can be recognized as batch-compatible (same static system
  and parameters, differing only in velocity seed) from their specs,
  without building anything — the grouping key the scheduler uses to
  fuse jobs into one :class:`~repro.ensemble.EnsembleSimulation` pass.

Job lifecycle::

    PENDING --assign--> RUNNING --slices done--> DONE
       ^                  | | |
       |   preempted /    | | +--error--> FAILED
       +-- worker died ---+ |
       |                    +--cancel--> CANCELLED
       +--- (requeue keeps checkpoints; resume is bit-exact)

``PREEMPTED`` is recorded as a distinct state in the durable journal
(it is how the operator sees *why* a job left its worker), but a
preempted or worker-orphaned job always transitions back to PENDING to
become schedulable again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "JobSpec",
    "Job",
    "JOB_STATES",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "InvalidTransition",
    "prepare_job_system",
]

#: Every state a job can be in.
JOB_STATES = ("PENDING", "RUNNING", "PREEMPTED", "FAILED", "DONE", "CANCELLED")
#: States a job never leaves.
TERMINAL_STATES = frozenset({"DONE", "FAILED", "CANCELLED"})

#: The job state machine.  PREEMPTED covers both scheduler preemption
#: and a worker death (the journal's transition reason distinguishes
#: them); it immediately requeues to PENDING.
VALID_TRANSITIONS = {
    "PENDING": {"RUNNING", "CANCELLED"},
    "RUNNING": {"PREEMPTED", "FAILED", "DONE", "CANCELLED"},
    "PREEMPTED": {"PENDING"},
    "FAILED": set(),
    "DONE": set(),
    "CANCELLED": set(),
}


class InvalidTransition(ValueError):
    """A job was asked to enter a state its current state forbids."""


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)run one simulation deterministically.

    ``seed`` is the velocity seed (the per-run identity); everything
    else describes the static system and parameters.  Fields mirror the
    ``repro simulate``/``repro ensemble`` flags for the water family.
    """

    system: str = "water"
    waters: int = 64
    build_seed: int = 0
    steps: int = 100
    dt: float = 1.0
    temperature: float = 300.0
    seed: int = 0
    priority: int = 0
    cutoff: float | None = None
    record_every: int = 10
    trajectory_every: int = 0  # 0: record_every
    checkpoint_every: int = 0  # 0: steps (one slice)
    retain: int = 4
    name: str = ""

    def __post_init__(self):
        if self.system != "water":
            raise ValueError(f"unsupported job system {self.system!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # Input validation: a slice (== checkpoint cadence) is a whole
        # number of record intervals, so every progress report covers
        # complete records.  (Byte-identity no longer depends on it —
        # the run loop keys records to the global step.)
        if (self.checkpoint_every and self.record_every
                and self.checkpoint_every % self.record_every):
            raise ValueError(
                f"checkpoint_every ({self.checkpoint_every}) must be a "
                f"multiple of record_every ({self.record_every})"
            )

    # -- derived cadences ---------------------------------------------------

    @property
    def effective_trajectory_every(self) -> int:
        return self.trajectory_every or self.record_every

    @property
    def slice_steps(self) -> int:
        """Steps per worker slice == checkpoint cadence.

        Slices end exactly at checkpoint saves, so preemption and
        recovery always resume from an on-cadence snapshot and the
        rolling store's contents match an uninterrupted run's.
        """
        return self.checkpoint_every or self.steps

    # -- batching -----------------------------------------------------------

    def group_key(self) -> tuple:
        """Batch-compatibility key: equal keys may share one engine pass.

        Everything except the velocity ``seed`` and ``name`` — same
        static system, parameters, step count, cadences, and priority.
        (Same priority keeps batching from smuggling a low-priority job
        into a high-priority slot.)  Jobs with equal keys produce equal
        system fingerprints, which is what makes the fused
        :class:`~repro.ensemble.EnsembleSimulation` pass bitwise-safe.
        """
        d = asdict(self)
        d.pop("seed")
        d.pop("name")
        return tuple(sorted(d.items()))

    def prepare_key(self) -> tuple:
        """Preparation key: exactly the fields :func:`prepare_job_system`
        reads.  Equal keys build and minimize to bitwise-equal prepared
        systems, whatever the seed, step count, cadences or priority —
        what a worker's :class:`~repro.serve.workers.PreparedSystems`
        cache is keyed by.
        """
        return (self.system, self.waters, self.build_seed, self.cutoff)

    # -- wire format --------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})


@dataclass
class Job:
    """One job's durable scheduling state (spec + journal-backed fields)."""

    id: str
    spec: JobSpec
    state: str = "PENDING"
    #: Monotonic submission index — the FIFO tiebreaker.
    arrival: int = 0
    #: Steps completed and durably checkpointed.
    steps_done: int = 0
    preemptions: int = 0
    recoveries: int = 0
    slices: int = 0
    error: str = ""
    #: Artifact directory (assigned at submit, relative to the state dir).
    artifact_dir: str = ""
    #: Wall-clock bookkeeping for metrics (never affects artifacts).
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    run_seconds: float = 0.0

    def transition(self, to: str) -> None:
        if to not in JOB_STATES:
            raise InvalidTransition(f"unknown job state {to!r}")
        if to not in VALID_TRANSITIONS[self.state]:
            raise InvalidTransition(f"job {self.id}: cannot go {self.state} -> {to}")
        self.state = to

    @property
    def remaining(self) -> int:
        return max(0, self.spec.steps - self.steps_done)


def prepare_job_system(spec: JobSpec):
    """Build the prepared (minimized) system + params for a spec.

    The water family's one preparation recipe
    (:func:`repro.systems.prepare_water_box`), which is also what the
    solo CLI runs.  Velocities are *not* drawn here — the velocity seed
    is the per-job identity, applied by the worker (via the ensemble
    engine's seed list) or by ``initialize_velocities`` on the solo
    path.  Deterministic: specs with equal :meth:`JobSpec.prepare_key`
    yield bitwise-equal prepared systems.  Pure and uncached — every
    call pays the real build + minimization (the references and
    baselines the service is measured against call it directly); the
    workers' reuse lives in :class:`~repro.serve.workers.PreparedSystems`.
    """
    from repro.systems import prepare_water_box

    system, params, _ = prepare_water_box(spec.waters, spec.build_seed, spec.cutoff)
    return system, params

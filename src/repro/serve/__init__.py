"""Multi-run simulation service: durable queue, scheduler, worker pool.

``repro serve`` turns the single-run engine into a small local
service: jobs are submitted over a unix socket, journaled durably
(SIGKILL-safe), scheduled by priority + FIFO with same-system batching
into one :class:`~repro.ensemble.EnsembleSimulation` pass, and
executed by a pool of worker processes in checkpoint-cadence slices —
so preemption, worker death, and server restarts all resume bit-exactly
and every job's artifacts stay byte-identical to a same-seed solo
:class:`~repro.core.simulation.Simulation` run.
"""

from repro.serve.client import ServeClient, ServeUnavailable, request
from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    InvalidTransition,
    Job,
    JobSpec,
    prepare_job_system,
)
from repro.serve.queue import JobQueue, QueueError
from repro.serve.scheduler import (
    Assignment,
    Plan,
    make_assignment,
    order_key,
    pending_order,
    plan,
    simulate_schedule,
)
from repro.serve.server import SOCKET_NAME, ServeConfig, Server
from repro.serve.workers import (
    AssignmentJob,
    PreparedSystems,
    SliceOutcome,
    execute_assignment,
    worker_main,
)

__all__ = [
    "JobSpec",
    "Job",
    "JOB_STATES",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "InvalidTransition",
    "prepare_job_system",
    "JobQueue",
    "QueueError",
    "Assignment",
    "Plan",
    "order_key",
    "pending_order",
    "make_assignment",
    "plan",
    "simulate_schedule",
    "AssignmentJob",
    "SliceOutcome",
    "PreparedSystems",
    "execute_assignment",
    "worker_main",
    "Server",
    "ServeConfig",
    "SOCKET_NAME",
    "ServeClient",
    "ServeUnavailable",
    "request",
]

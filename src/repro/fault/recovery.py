"""Self-healing recovery: bounded retries and rollback-and-replay.

Two tiers, mirroring what a real fleet does:

* **Transient message faults** (drop / corrupt) are healed at the step
  barrier by retry-with-backoff: each retransmission is an ordinary
  send charged to the network's recovery pool, and a message that stays dead
  past :attr:`RecoveryPolicy.max_retries` escalates to a rollback (the
  link is declared failed).
* **Node faults** are watched through barrier heartbeats.  A stalled
  node is waited out (counted waits, bounded by the same retry budget);
  a crashed node triggers rollback to the newest valid checkpoint —
  the durable :class:`~repro.io.CheckpointStore` when the run has one,
  else the controller's in-memory snapshot ring, else the run-start
  baseline — followed by deterministic replay.

Replayed steps re-execute the exact integer arithmetic of the rolled
back steps (checkpoint restore is bit-exact, PR 4), so the healed
trajectory is bit-for-bit the fault-free one; their traffic is charged
to the network's ``recovery_stats`` so primary statistics stay clean.

Every counter is deterministic for a given schedule: the chaos harness
asserts identical counters *and* identical final bits across the serial
and vectorized backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.detect import BarrierDetector, HeartbeatBoard
from repro.fault.inject import FaultyNetwork
from repro.fault.schedule import MESSAGE_KINDS, NODE_KINDS, FaultSchedule
from repro.io.checkpoint import CheckpointError, CheckpointStore
from repro.io.serialize import pack_state, unpack_state

__all__ = ["FaultController", "MemorySnapshotStore", "RecoveryPolicy", "RollbackFailed"]


#: Growth of the modeled wait between recovery attempts: attempt k
#: waits ``BACKOFF_BASE**k`` barrier slots (observable as the
#: ``fault_backoff_slots`` counter).
BACKOFF_BASE = 2


class RollbackFailed(Exception):
    """No snapshot (durable, in-memory, or baseline) could be restored."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the self-healing layer.

    ``max_retries`` bounds both message retransmissions per anomaly and
    heartbeat waits per silent node.
    ``checkpoint_every``/``retain`` drive the in-memory snapshot ring
    used when the run has no durable checkpoint store.
    """

    max_retries: int = 3
    checkpoint_every: int = 4
    retain: int = 4

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.retain < 1:
            raise ValueError("retain must be >= 1")


class MemorySnapshotStore:
    """In-memory rolling snapshot ring with the CheckpointStore contract.

    Snapshots are held as :func:`~repro.io.serialize.pack_state` bytes —
    the same encoding the durable store writes — so a restored state is
    byte-equivalent to one that round-tripped through disk, and the
    ring is immune to later in-place mutation of the live arrays.
    """

    def __init__(self, retain: int = 4):
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.retain = int(retain)
        self._snaps: list[tuple[int, bytes]] = []  # (step, packed), oldest first

    def save(self, state: dict, step: int) -> None:
        packed = pack_state(state)
        self._snaps = [s for s in self._snaps if s[0] != step]
        self._snaps.append((int(step), packed))
        self._snaps.sort()
        del self._snaps[: max(0, len(self._snaps) - self.retain)]

    def steps(self) -> list[int]:
        return [step for step, _ in self._snaps]

    def load_latest(self) -> tuple[dict, int]:
        if not self._snaps:
            raise CheckpointError("no in-memory snapshot")
        step, packed = self._snaps[-1]
        return unpack_state(packed), step


class FaultController:
    """Drives injection, detection, and recovery around a machine run.

    Owned by :class:`~repro.machine.machine.AntonMachine` when it is
    constructed with ``faults=``, and handed by its ``run`` to the one
    run loop (:func:`repro.core.runloop.run_loop`) as the step bracket:
    :meth:`begin_step` / :meth:`end_step` / :meth:`after_io` around
    every time step.  All counters are also mirrored into the machine's
    :class:`~repro.perf.Timers` counts (``fault_*``), so ``--timings``
    and :meth:`profile` surface them.
    """

    COUNTERS = (
        "injected",
        "detected_missing",
        "detected_corrupt",
        "duplicates_discarded",
        "delayed",
        "retries",
        "retransmitted_bytes",
        "backoff_slots",
        "stalls",
        "barrier_timeouts",
        "crashes",
        "link_failures",
        "rollbacks",
        "replayed_steps",
    )

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: RecoveryPolicy | None = None,
        timers=None,
    ):
        self.schedule = schedule
        self.policy = policy or RecoveryPolicy()
        self.timers = timers
        self.detector = BarrierDetector()
        self.heartbeats = HeartbeatBoard()
        self.counters: dict[str, int] = {name: 0 for name in self.COUNTERS}
        self.memory_store = MemorySnapshotStore(retain=self.policy.retain)
        self._baseline: bytes | None = None
        self._store: CheckpointStore | None = None
        self._events_by_step: dict[int, list] = {}
        self._replay_until = -1  # traffic of steps <= this goes to recovery
        self._io_done_until = -1  # store/trajectory writes already emitted
        self._pending_rollback_step = -1

    # -- counter plumbing -----------------------------------------------------

    def _count(self, name: str, k: int = 1) -> None:
        self.counters[name] += int(k)
        if self.timers is not None:
            self.timers.count(f"fault_{name}", k)

    def report(self) -> dict[str, int]:
        """All recovery counters (deterministic for a given schedule)."""
        return dict(self.counters)

    # -- run lifecycle --------------------------------------------------------

    def start_run(self, machine, n_steps: int, store: CheckpointStore | None = None) -> None:
        """Arm the controller for ``n_steps`` from the machine's current
        step: materialize the event window and take the baseline
        snapshot rollback falls back to when no checkpoint exists yet.
        ``store`` is the run's durable checkpoint store, if it has one."""
        self._store = store
        start = machine.integrator.step_count + 1
        events = self.schedule.events(start, n_steps)
        self._events_by_step = {}
        for event in events:
            self._events_by_step.setdefault(event.step, []).append(event)
        self._baseline = pack_state(machine.checkpoint())
        self._pending_rollback_step = -1
        self._replay_until = -1
        self._io_done_until = machine.integrator.step_count

    def replaying(self, step: int) -> bool:
        """True while ``step`` is a post-rollback re-execution."""
        return step <= self._replay_until

    def begin_step(self, machine, step: int) -> None:
        """Arm the wire ledger (original passes only — replayed steps
        were already injected and audited the first time around)."""
        network = machine.network
        if not isinstance(network, FaultyNetwork):
            return
        network.set_recovery(self.replaying(step))
        if not self.replaying(step):
            network.begin_step(step)

    def end_step(self, machine, step: int) -> bool:
        """The barrier after one executed step, for the run loop.

        True when the step's output must not be emitted: it was rolled
        back, or it is a replay of a step whose store/trajectory writes
        already happened before a rollback.
        """
        t = machine.calc.timers
        with t.time("machine_fault_barrier"):
            if self.after_step(machine, step):
                with t.time("machine_rollback"):
                    self.rollback(machine, self._store)
                return True
        return step <= self._io_done_until

    def after_step(self, machine, step: int) -> bool:
        """Barrier work after one executed step.

        Audits the wire, retries transient faults, polls heartbeats,
        and returns True when the step must be rolled back (node crash
        or a link that stayed dead past the retry budget).
        """
        network = machine.network
        if not isinstance(network, FaultyNetwork):
            return False
        if self.replaying(step):
            self._count("replayed_steps")
            if step == self._replay_until:
                self._replay_until = -1
                network.set_recovery(False)
            return False

        ledger = network.end_step()
        events = self._events_by_step.pop(step, [])
        rollback = False

        message_events = [e for e in events if e.kind in MESSAGE_KINDS]
        if ledger is not None and ledger.n_messages and message_events:
            self._count("injected", len(message_events))
            persist = {e.index % ledger.n_messages: e.persist for e in message_events}
            image = network.damage(ledger, message_events)
            for anomaly in self.detector.scan(ledger, image):
                rollback |= self._heal_message(network, anomaly, persist)
        elif message_events:
            # A step with no remote traffic cannot lose messages; the
            # events dissolve (still deterministic — both backends see
            # the same empty ledger).
            pass

        for event in (e for e in events if e.kind in NODE_KINDS):
            self._count("injected")
            node = event.index % machine.topology.n_nodes
            if event.kind == "stall":
                self._count("stalls")
                self.heartbeats.mark_stall(node, min(event.persist + 1, self.policy.max_retries))
            else:  # crash
                self._count("crashes")
                self.heartbeats.mark_crash(node)
            rollback |= self._await_heartbeat(node)

        if rollback:
            self._pending_rollback_step = step
        return rollback

    # -- healing --------------------------------------------------------------

    def _heal_message(self, network: FaultyNetwork, anomaly, persist: dict) -> bool:
        """Heal one wire anomaly; True when it escalates to rollback."""
        if anomaly.kind == "duplicate":
            self._count("duplicates_discarded")
            return False
        if anomaly.kind == "delayed":
            self._count("delayed")
            self._count("backoff_slots")  # one barrier re-poll
            return False
        self._count("detected_missing" if anomaly.kind == "missing" else "detected_corrupt")
        stays_dead = persist.get(anomaly.seq, 0)
        # Retransmissions are recovery traffic: ordinary sends into the
        # recovery pool (healing runs on original, never replayed, steps).
        network.set_recovery(True)
        for attempt in range(min(stays_dead + 1, self.policy.max_retries)):
            self._count("retries")
            self._count("backoff_slots", BACKOFF_BASE**attempt)
            network.send(anomaly.src, anomaly.dst, anomaly.nbytes, anomaly.tag)
            self._count("retransmitted_bytes", anomaly.nbytes)
        network.set_recovery(False)
        if stays_dead < self.policy.max_retries:
            return False
        self._count("link_failures")
        return True

    def _await_heartbeat(self, node: int) -> bool:
        """Barrier-wait for a silent node; True when it is declared dead."""
        for attempt in range(self.policy.max_retries):
            self._count("backoff_slots", BACKOFF_BASE**attempt)
            if self.heartbeats.poll(node):
                return False
            self._count("barrier_timeouts")
        self.heartbeats.clear(node)  # replaced/rebooted by the rollback
        return True

    # -- snapshots & rollback ---------------------------------------------------

    def after_io(self, machine, step: int) -> None:
        """Feed the in-memory ring on the policy cadence when the run
        has no durable store (which otherwise owns checkpointing)."""
        if self._store is None and step % self.policy.checkpoint_every == 0:
            self.memory_store.save(machine.checkpoint(), step)

    def rollback(self, machine, store: CheckpointStore | None) -> int:
        """Restore the newest valid snapshot and arm deterministic replay.

        Preference order: durable store (newest snapshot passing its CRC
        checks, corrupt ones skipped; ``restore`` checks its
        fingerprint), the in-memory ring, the run-start baseline.
        Returns the restored step.
        """
        failed_step = self._pending_rollback_step
        self._pending_rollback_step = -1
        network = machine.network
        if isinstance(network, FaultyNetwork):
            network.end_step()  # discard the failed step's ledger
            network.set_recovery(True)  # restore() recomputes forces
        state = None
        if store is not None:
            try:
                state = store.load_latest().state
            except CheckpointError:
                state = None
        if state is None:
            try:
                state, _ = self.memory_store.load_latest()
            except CheckpointError:
                if self._baseline is None:
                    raise RollbackFailed(
                        "crash before any checkpoint and no baseline snapshot"
                    ) from None
                state = unpack_state(self._baseline)
        machine.restore(state)
        restored = machine.integrator.step_count
        self._count("rollbacks")
        # Steps (restored, failed_step] replay with recovery-pool
        # traffic; IO for steps up to failed_step - 1 already happened
        # (the failed step's own IO was pre-empted by this rollback).
        self._replay_until = failed_step
        self._io_done_until = max(self._io_done_until, failed_step - 1)
        if isinstance(network, FaultyNetwork) and not self.replaying(restored + 1):
            network.set_recovery(False)
        return restored

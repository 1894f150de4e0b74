"""Fault injection into the simulated interconnect.

:class:`FaultyNetwork` is a drop-in :class:`~repro.parallel.comm.SimNetwork`
that (a) keeps a per-step :class:`~repro.fault.detect.StepLedger` of
every primary message any backend charges, (b) applies a step's
scheduled message faults to the *received image* of that ledger at the
barrier, and (c) keeps recovery traffic out of the primary statistics.
Recovery accounting is one decision, :meth:`FaultyNetwork.set_recovery`:
while it is active every charge — retransmissions and whole replayed
steps (after a rollback) alike — lands in ``recovery_stats`` and, on a
routed fabric, on a second :class:`~repro.network.LinkRouter`, by
swapping the active stats object and router.  A fault run's primary
counters and link loads are therefore exactly a clean run's, which the
chaos harness asserts.

Physics never flows through the wire: the network carries accounting
only, so injected damage is observable (checksums, counters, retries,
rollbacks) but cannot corrupt state — corrupted *content* is modeled by
the checksum mismatch that forces the retransmission which, on real
hardware, restores the original bytes.
"""

from __future__ import annotations

import numpy as np

from repro.fault.detect import StepLedger, WireImage
from repro.fault.schedule import MESSAGE_KINDS, FaultEvent
from repro.parallel.comm import NetworkStats, SimNetwork
from repro.parallel.topology import TorusTopology

__all__ = ["FaultyNetwork"]


class FaultyNetwork(SimNetwork):
    """A SimNetwork with a wire ledger, fault application, and split
    primary/recovery accounting."""

    def __init__(self, topology: TorusTopology):
        super().__init__(topology)
        #: Traffic charged while healing: retransmitted messages and
        #: every message of a replayed (post-rollback) step.
        self.recovery_stats = NetworkStats(topology.n_nodes)
        self._primary_stats = self.stats
        #: Link loads of the recovery pool (routed fabrics only).
        self.recovery_router = None
        self._primary_router = None
        self._ledger: StepLedger | None = None

    # -- stats routing -------------------------------------------------------

    @property
    def primary_stats(self) -> NetworkStats:
        return self._primary_stats

    @property
    def in_recovery(self) -> bool:
        return self.stats is self.recovery_stats

    def attach_router(self, router) -> None:
        """Attach the primary router and build the recovery pool's twin
        (same topology, config and hardware)."""
        self._primary_router = router
        self.recovery_router = type(router)(router.topology, router.config, router.hw)
        self.set_recovery(self.in_recovery)

    def set_recovery(self, active: bool) -> None:
        """Route *all* subsequent charges (including direct ``stats``
        mutations by the machine) to the recovery pool."""
        self.stats = self.recovery_stats if active else self._primary_stats
        self.router = self.recovery_router if active else self._primary_router

    def reset_stats(self) -> None:
        """Fresh primary and recovery counters (and recovery link loads);
        the active pool is kept."""
        recovering = self.in_recovery
        self._primary_stats = NetworkStats(self.topology.n_nodes)
        self.recovery_stats = NetworkStats(self.topology.n_nodes)
        if self.recovery_router is not None:
            self.recovery_router.reset()
        self.set_recovery(recovering)

    # -- wire ledger ---------------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Start recording the wire ledger for ``step``."""
        self._ledger = StepLedger(step)

    def end_step(self) -> StepLedger | None:
        """Stop recording; returns the step's ledger (None when idle)."""
        ledger, self._ledger = self._ledger, None
        return ledger

    def send(self, src, dst, nbytes, tag):
        super().send(src, dst, nbytes, tag)
        if self._ledger is not None and not self.in_recovery and src != dst:
            self._ledger.record(tag, src, dst, nbytes)

    def send_batch(self, src, dst, nbytes, tag, route=True):
        super().send_batch(src, dst, nbytes, tag, route=route)
        if self._ledger is not None and not self.in_recovery:
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            nbytes = np.asarray(nbytes, dtype=np.int64)
            remote = src != dst
            if remote.any():
                self._ledger.record(tag, src[remote], dst[remote], nbytes[remote])

    # -- fault application ----------------------------------------------------

    @staticmethod
    def damage(ledger: StepLedger, events: list[FaultEvent]) -> WireImage:
        """Apply a step's message faults to the fresh received image.

        Victims are picked by ``event.index`` modulo the canonical
        message count, so the same schedule wounds the same wire bytes
        on every backend.
        """
        image = ledger.fresh_image()
        n = len(image.copies)
        if n == 0:
            return image
        for event in events:
            if event.kind not in MESSAGE_KINDS:
                continue
            victim = event.index % n
            if event.kind == "drop":
                image.copies[victim] = 0
            elif event.kind == "corrupt":
                image.checksums[victim] ^= np.uint64(1) << np.uint64(event.index % 64)
            elif event.kind == "duplicate":
                image.copies[victim] += 1
            elif event.kind == "delay":
                image.delayed[victim] = True
        return image

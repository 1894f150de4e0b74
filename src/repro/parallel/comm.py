"""Simulated inter-node message passing with traffic accounting.

The functional machine simulation routes every inter-node transfer
through a :class:`SimNetwork`, which records message counts, byte
volumes, and hop-weighted link traffic.  The paper's key communication
facts — "inter-node latency is tens of nanoseconds, and messages with
as little as four bytes of data can be sent efficiently ... a typical
time step on Anton involves thousands of inter-node messages per ASIC"
— become measurable quantities of a simulated step, which the
performance model then converts to time.

Accounting comes in two granularities: :meth:`SimNetwork.send` charges
one message (and optionally carries a payload), while
:meth:`SimNetwork.send_batch` charges a whole array of routes at once
with bincount reductions — the same statistics a loop of ``send`` calls
would produce, without the per-message Python overhead.  Per-node
counters are int64 arrays indexed by node id.

Retransmissions (fault recovery, see :mod:`repro.fault`) are charged
with ``retransmit=True`` and land in separate ``retransmit_*`` /
``by_tag_retransmit`` counters: the primary statistics stay exactly
those of a fault-free run, so a fault-injected run never inflates the
paper's Table 3 traffic comparison.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.topology import TorusTopology

__all__ = ["NetworkStats", "SimNetwork"]


class NetworkStats:
    """Aggregated traffic counters for one accounting window.

    ``per_node_messages`` / ``per_node_bytes`` are int64 arrays indexed
    by source node id; ``by_tag`` maps each traffic class to its
    cumulative ``(messages, bytes)``.
    """

    def __init__(self, n_nodes: int = 1):
        self.messages = 0
        self.bytes = 0
        self.hop_bytes = 0  # bytes weighted by torus hop distance
        self.per_node_messages = np.zeros(n_nodes, dtype=np.int64)
        self.per_node_bytes = np.zeros(n_nodes, dtype=np.int64)
        self.by_tag: dict[str, tuple[int, int]] = {}
        # Fault-recovery retransmissions, accounted apart from the
        # primary counters above (which must match a fault-free run).
        self.retransmit_messages = 0
        self.retransmit_bytes = 0
        self.by_tag_retransmit: dict[str, tuple[int, int]] = {}

    def charge_tag(self, tag: str, messages: int, nbytes: int) -> None:
        m, b = self.by_tag.get(tag, (0, 0))
        self.by_tag[tag] = (m + int(messages), b + int(nbytes))

    def charge_retransmit(self, tag: str, messages: int, nbytes: int) -> None:
        self.retransmit_messages += int(messages)
        self.retransmit_bytes += int(nbytes)
        m, b = self.by_tag_retransmit.get(tag, (0, 0))
        self.by_tag_retransmit[tag] = (m + int(messages), b + int(nbytes))


class SimNetwork:
    """Message transport between simulated nodes.

    ``send`` delivers payloads immediately (the functional simulation is
    sequential) while accumulating the statistics a real torus would
    exhibit.  Payloads are opaque to the network.
    """

    def __init__(self, topology: TorusTopology):
        self.topology = topology
        self.stats = NetworkStats(topology.n_nodes)
        self._mailboxes: dict[tuple[int, str], list] = {}
        #: Optional link-level router (:class:`repro.network.LinkRouter`).
        self.router = None

    def reset_stats(self) -> None:
        self.stats = NetworkStats(self.topology.n_nodes)

    def attach_router(self, router) -> None:
        """Attach a routed-fabric accounting layer.

        Every subsequent charge is *also* expanded into per-link
        traversals by the router.  Strictly additive: the flat
        :class:`NetworkStats` counters, payload delivery, and therefore
        all simulation state are bitwise unchanged by attaching one.
        """
        self.router = router

    @property
    def in_recovery(self) -> bool:
        """Whether charges currently land in a recovery pool.  The base
        network has no fault layer; :class:`~repro.fault.inject.FaultyNetwork`
        overrides this during rollback replay."""
        return False

    def send(
        self, src: int, dst: int, nbytes: int, tag: str, payload=None, retransmit: bool = False
    ) -> None:
        """Send one message; local (src == dst) transfers are free.

        ``retransmit=True`` marks a fault-recovery resend: it is
        counted in the separate retransmit counters so the primary
        statistics keep matching a fault-free run.
        """
        if src == dst:
            if payload is not None:
                self._mailboxes.setdefault((dst, tag), []).append(payload)
            return
        s = self.stats
        if retransmit:
            s.charge_retransmit(tag, 1, nbytes)
            if self.router is not None:
                self.router.charge(src, dst, nbytes, tag, recovery=True)
            return
        s.messages += 1
        s.bytes += int(nbytes)
        s.hop_bytes += int(nbytes) * self.topology.hop_distance(src, dst)
        s.per_node_messages[src] += 1
        s.per_node_bytes[src] += int(nbytes)
        s.charge_tag(tag, 1, nbytes)
        if self.router is not None:
            self.router.charge(src, dst, nbytes, tag, recovery=self.in_recovery)
        if payload is not None:
            self._mailboxes.setdefault((dst, tag), []).append(payload)

    def send_batch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        tag: str,
        retransmit: bool = False,
        route: bool = True,
    ) -> None:
        """Charge an array of messages in one call (no payloads).

        Produces exactly the statistics of ``send(src[k], dst[k],
        nbytes[k], tag)`` over all ``k`` — local routes are free, hop
        weighting uses the torus metric — but reduces with bincounts
        instead of a Python loop per message.  ``retransmit=True``
        charges the whole batch to the retransmit counters instead of
        the primary ones.  ``route=False`` skips the attached router
        (multicast entry points charge tree links themselves).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        remote = src != dst
        if not remote.all():
            src, dst, nbytes = src[remote], dst[remote], nbytes[remote]
        if not len(src):
            return
        s = self.stats
        total = int(np.sum(nbytes))
        if retransmit:
            s.charge_retransmit(tag, len(src), total)
            if route and self.router is not None:
                self.router.charge_batch(src, dst, nbytes, tag, recovery=True)
            return
        s.messages += len(src)
        s.bytes += total
        s.hop_bytes += int(np.sum(nbytes * self.topology.hop_distances(src, dst)))
        n = self.topology.n_nodes
        s.per_node_messages += np.bincount(src, minlength=n)
        np.add.at(s.per_node_bytes, src, nbytes)
        s.charge_tag(tag, len(src), total)
        if route and self.router is not None:
            self.router.charge_batch(src, dst, nbytes, tag, recovery=self.in_recovery)

    def multicast(self, src: int, dsts: list[int], nbytes: int, tag: str, payload=None) -> None:
        """Send the same payload to several destinations.

        Models Anton's multicast mechanism, "which sends all atoms in a
        given subbox to the same set of nodes" (Section 3.2.1) — one
        message per destination is still charged, since each traverses
        its own final link.  The destination fan-out is charged through
        a single ``send_batch`` call (payload delivery is unchanged),
        so large NT broadcasts don't pay per-message Python overhead;
        an attached router carries the payload once per multicast-tree
        edge instead of once per destination path.
        """
        dsts_arr = np.atleast_1d(np.asarray(dsts, dtype=np.int64))
        if payload is not None:
            for dst in dsts_arr:
                self._mailboxes.setdefault((int(dst), tag), []).append(payload)
        if not len(dsts_arr):
            return
        self.send_batch(
            np.full(dsts_arr.shape, src, dtype=np.int64),
            dsts_arr,
            np.full(dsts_arr.shape, int(nbytes), dtype=np.int64),
            tag,
            route=False,
        )
        if self.router is not None:
            self.router.charge_multicast(
                src, dsts_arr, int(nbytes), tag, recovery=self.in_recovery
            )

    def multicast_routes(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, tag: str
    ) -> None:
        """Charge a batch of per-destination broadcast routes.

        Statistics are exactly those of :meth:`send_batch` — one
        charged message per destination, since each traverses its own
        final link — but rows sharing a source are one payload fanned
        out to many nodes (the NT subbox broadcast), so an attached
        router charges each source's spanning tree instead of one
        unicast path per destination.
        """
        self.send_batch(src, dst, nbytes, tag, route=False)
        if self.router is not None:
            self.router.charge_multicast_routes(
                src, dst, nbytes, tag, recovery=self.in_recovery
            )

    def receive(self, node: int, tag: str) -> list:
        """Drain the mailbox for (node, tag); returns payloads in
        deterministic send order."""
        return self._mailboxes.pop((node, tag), [])

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
one message, while :meth:`SimNetwork.send_batch` charges a whole array
of routes at once with bincount reductions — the same statistics a loop
of ``send`` calls would produce, without the per-message Python
overhead.  Per-node counters are int64 arrays indexed by node id.

The network carries accounting only: the simulation is sequential and
its state never travels as a message.  Keeping fault-recovery traffic
out of these counters is the fault layer's job
(:class:`repro.fault.FaultyNetwork` swaps in a separate pool).
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

    def charge_tag(self, tag: str, messages: int, nbytes: int) -> None:
        m, b = self.by_tag.get(tag, (0, 0))
        self.by_tag[tag] = (m + int(messages), b + int(nbytes))


class SimNetwork:
    """Message accounting between simulated nodes.

    Charges accumulate the statistics a real torus would exhibit; no
    payload is carried (the functional simulation is sequential).
    """

    def __init__(self, topology: TorusTopology):
        self.topology = topology
        self.stats = NetworkStats(topology.n_nodes)
        #: Optional link-level router (:class:`repro.network.LinkRouter`).
        self.router = None

    def reset_stats(self) -> None:
        self.stats = NetworkStats(self.topology.n_nodes)

    def attach_router(self, router) -> None:
        """Attach a routed-fabric accounting layer.

        Every subsequent charge is *also* expanded into per-link
        traversals by the router.  Strictly additive: the flat
        :class:`NetworkStats` counters, and therefore all simulation
        state, are bitwise unchanged by attaching one.
        """
        self.router = router

    def send(self, src: int, dst: int, nbytes: int, tag: str) -> None:
        """Send one message; local (src == dst) transfers are free."""
        if src == dst:
            return
        s = self.stats
        s.messages += 1
        s.bytes += int(nbytes)
        s.hop_bytes += int(nbytes) * self.topology.hop_distance(src, dst)
        s.per_node_messages[src] += 1
        s.per_node_bytes[src] += int(nbytes)
        s.charge_tag(tag, 1, nbytes)
        if self.router is not None:
            self.router.charge_batch(src, dst, nbytes, tag)

    def send_batch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        tag: str,
        route: bool = True,
    ) -> None:
        """Charge an array of messages in one call.

        Produces exactly the statistics of ``send(src[k], dst[k],
        nbytes[k], tag)`` over all ``k`` — local routes are free, hop
        weighting uses the torus metric — but reduces with bincounts
        instead of a Python loop per message.  ``route=False`` skips
        the attached router (multicast entry points charge tree links
        themselves).
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
        s.messages += len(src)
        s.bytes += total
        s.hop_bytes += int(np.sum(nbytes * self.topology.hop_distances(src, dst)))
        n = self.topology.n_nodes
        s.per_node_messages += np.bincount(src, minlength=n)
        np.add.at(s.per_node_bytes, src, nbytes)
        s.charge_tag(tag, len(src), total)
        if route and self.router is not None:
            self.router.charge_batch(src, dst, nbytes, tag)

    def multicast(self, src: int, dsts: list[int], nbytes: int, tag: str) -> None:
        """Send the same payload from ``src`` to several destinations.

        Models Anton's multicast mechanism, "which sends all atoms in a
        given subbox to the same set of nodes" (Section 3.2.1): the
        one-source case of :meth:`multicast_routes`.
        """
        dsts = np.atleast_1d(np.asarray(dsts, dtype=np.int64))
        self.multicast_routes(
            np.full(dsts.shape, src, dtype=np.int64),
            dsts,
            np.full(dsts.shape, int(nbytes), dtype=np.int64),
            tag,
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
            self.router.charge_multicast_routes(src, dst, nbytes, tag)

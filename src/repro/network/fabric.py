"""Cycle-approximate link fabric: occupancy, congestion, multicast.

:class:`LinkRouter` sits behind a :class:`~repro.parallel.comm.SimNetwork`
(attached with :meth:`SimNetwork.attach_router`) and expands every
charged message into the directed torus links it traverses
(:mod:`repro.network.routing`).  It is an *accounting layer only*: the
flat :class:`~repro.parallel.comm.NetworkStats` counters — and
therefore every trajectory, checkpoint, and Table 3 number — are
bitwise unchanged whether a router is attached or not.  What routing
adds is the quantity the flat counters cannot express: **where** the
bytes go, and which single link limits the step.

Accounting contract (pinned by the conservation tests):

* With plain unicast accounting and no compression, the sum of
  per-link bytes equals ``NetworkStats.hop_bytes`` exactly — every
  message charges its full byte count to each link of its
  dimension-ordered path, and the path length equals the torus hop
  distance.
* Tree multicast and payload compression are *savings transforms*;
  each tracks exactly the hop-bytes it removed, so
  ``link_bytes + multicast_saved + compression_saved == hop_bytes``
  remains an integer identity in every configuration.
* The router knows nothing of faults.  Fault-recovery traffic
  (retransmissions and replayed steps) lands on a second router that
  :class:`~repro.fault.FaultyNetwork` swaps in while it heals, so a
  faulted run's link loads here are exactly a clean run's, and the
  recovery router keeps the same identity over its own pool.

The congestion model turns occupancy into time the way the GROMACS
scaling analysis does for real clusters: each accounting phase (tag)
is limited by its most loaded link, so the phase time is that link's
serialization time plus the longest route's per-hop latency, and the
step's communication time sums the phase critical paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.config import ANTON_2008, AntonHardware
from repro.network import routing
from repro.parallel.topology import TorusTopology

__all__ = ["RoutedConfig", "CongestionModel", "LinkLoad", "LinkRouter"]

#: Traffic classes carrying 32-bit fixed-point coordinate words: the
#: payloads ``RoutedConfig.delta_bits`` compresses.
COMPRESSED_TAGS = ("position_import", "force_export")


@dataclass(frozen=True)
class RoutedConfig:
    """Knobs of the routed fabric model (accounting only).

    multicast:
        ``"tree"`` charges the NT position broadcast along the edges of
        the dimension-ordered spanning tree (each link carries the
        payload once); ``"unicast"`` charges one full path per
        destination — the flat model's assumption, kept for exact
        conservation tests and as the savings baseline.
    delta_bits:
        When set, payloads of :data:`COMPRESSED_TAGS` are charged at
        ``delta_bits`` per 32-bit fixed-point word instead of 32 — the
        fixed-point delta compression of position/force traffic.  The
        transform touches wire bytes only, never the flat counters.
    """

    multicast: str = "tree"
    delta_bits: int | None = None

    def __post_init__(self) -> None:
        if self.multicast not in ("tree", "unicast"):
            raise ValueError(f"multicast must be 'tree' or 'unicast', got {self.multicast!r}")
        if self.delta_bits is not None and not 1 <= int(self.delta_bits) <= 32:
            raise ValueError(f"delta_bits must be in [1, 32], got {self.delta_bits}")


@dataclass(frozen=True)
class CongestionModel:
    """Per-link bandwidth/latency cost model.

    ``bandwidth_scale`` scales the usable link bandwidth (< 1 injects
    congestion — protocol overhead, flow-control stalls); the smoke
    gate checks predicted step time is monotone in it.
    """

    link_bytes_per_s: float = ANTON_2008.link_bytes_per_s
    latency_s: float = ANTON_2008.inter_node_latency_s
    bandwidth_scale: float = 1.0

    @classmethod
    def from_hardware(cls, hw: AntonHardware, bandwidth_scale: float = 1.0) -> "CongestionModel":
        return cls(
            link_bytes_per_s=hw.link_bytes_per_s,
            latency_s=hw.inter_node_latency_s,
            bandwidth_scale=bandwidth_scale,
        )

    def phase_time_us(self, critical_link_bytes: float, max_hops: int) -> float:
        """Time for one phase: serialization on the most loaded link
        plus the longest route's store-and-forward latency."""
        if critical_link_bytes <= 0 and max_hops <= 0:
            return 0.0
        serialization = critical_link_bytes / (self.link_bytes_per_s * self.bandwidth_scale)
        return (serialization + max_hops * self.latency_s) * 1e6


@dataclass
class LinkLoad:
    """Occupancy of every directed link: bytes and packet traversals."""

    bytes: np.ndarray
    packets: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "LinkLoad":
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    def total_packets(self) -> int:
        return int(self.packets.sum())

    def max_bytes(self) -> int:
        return int(self.bytes.max(initial=0))

    def busiest(self, k: int = 3) -> list[tuple[int, str, int]]:
        """Top-k loaded links as (node, direction, bytes), ties by id."""
        hot = np.argsort(-self.bytes, kind="stable")[:k]
        return [
            (int(routing.link_node(link)), routing.DIRECTION_NAMES[int(routing.link_direction(link))], int(self.bytes[link]))
            for link in hot
            if self.bytes[link] > 0
        ]


@dataclass
class _TagLoad:
    """Per-phase (traffic-class) primary accounting."""

    bytes: np.ndarray
    max_hops: int = 0
    messages: int = 0
    wire_bytes: int = 0  # post-compression bytes injected (not hop-weighted)


class LinkRouter:
    """Routes charged messages onto directed torus links.

    Every traversal accumulates into the ``primary`` link loads and the
    per-tag phase arrays the congestion model reads.
    """

    def __init__(
        self,
        topology: TorusTopology,
        config: RoutedConfig | None = None,
        hw: AntonHardware = ANTON_2008,
    ):
        self.topology = topology
        self.config = config or RoutedConfig()
        self.hw = hw
        self.congestion = CongestionModel.from_hardware(hw)
        self.n_links = routing.n_links(topology)
        self.reset()

    def reset(self) -> None:
        self.primary = LinkLoad.zeros(self.n_links)
        self.by_tag: dict[str, _TagLoad] = {}
        # Savings transforms, in hop-bytes (see module docstring).
        self.multicast_saved_hop_bytes = 0
        self.compression_saved_hop_bytes = 0
        # Multicast comparison totals (wire-scale hop bytes).
        self.multicast_unicast_hop_bytes = 0
        self.multicast_tree_hop_bytes = 0

    # -- helpers -------------------------------------------------------------

    def _tag(self, tag: str) -> _TagLoad:
        load = self.by_tag.get(tag)
        if load is None:
            load = _TagLoad(np.zeros(self.n_links, dtype=np.int64))
            self.by_tag[tag] = load
        return load

    def _wire_bytes(self, tag: str, nbytes: np.ndarray) -> np.ndarray:
        """Post-compression wire size of each payload.

        Fixed-point delta compression re-encodes each 32-bit coordinate
        word in ``delta_bits`` bits; the wire size never drops below the
        minimum efficient message ("messages with as little as four
        bytes of data can be sent efficiently").
        """
        bits = self.config.delta_bits
        if bits is None or tag not in COMPRESSED_TAGS:
            return nbytes
        compressed = (nbytes * int(bits) + 31) // 32
        return np.maximum(compressed, self.hw.min_message_bytes)

    # -- unicast charging ----------------------------------------------------

    def charge(self, src: int, dst: int, nbytes: int, tag: str) -> None:
        """Route one message (scalar convenience over charge_batch)."""
        self.charge_batch(
            np.asarray([src], dtype=np.int64),
            np.asarray([dst], dtype=np.int64),
            np.asarray([nbytes], dtype=np.int64),
            tag,
        )

    def charge_batch(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, tag: str
    ) -> None:
        """Route a message batch; local (src == dst) routes are free."""
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        nbytes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), src.shape)
        remote = src != dst
        if not remote.all():
            src, dst, nbytes = src[remote], dst[remote], nbytes[remote]
        if not len(src):
            return
        wire = self._wire_bytes(tag, nbytes)
        hops = self.topology.hop_distances(src, dst)
        routing.accumulate_link_loads(
            self.topology, src, dst, wire, self.primary.bytes, self.primary.packets
        )
        load = self._tag(tag)
        routing.accumulate_link_loads(self.topology, src, dst, wire, load.bytes)
        load.max_hops = max(load.max_hops, int(hops.max(initial=0)))
        load.messages += len(src)
        load.wire_bytes += int(wire.sum())
        self.compression_saved_hop_bytes += int(np.sum((nbytes - wire) * hops))

    # -- multicast charging --------------------------------------------------

    def charge_multicast(self, src: int, dsts: np.ndarray, nbytes: int, tag: str) -> None:
        """Route one source's broadcast of a single payload.

        In ``tree`` mode the payload is charged once per spanning-tree
        edge; in ``unicast`` mode once per destination path (exactly
        what ``charge_batch`` would do).  Both modes record the
        unicast/tree comparison totals the savings report exposes.
        """
        dsts = np.atleast_1d(np.asarray(dsts, dtype=np.int64))
        dsts = dsts[dsts != src]
        if not len(dsts):
            return
        src_arr = np.full(dsts.shape, src, dtype=np.int64)
        nbytes = int(nbytes)
        wire = int(self._wire_bytes(tag, np.asarray([nbytes], dtype=np.int64))[0])
        hops = self.topology.hop_distances(src_arr, dsts)
        unicast_hop_bytes = wire * int(hops.sum())
        tree = routing.multicast_tree_links(self.topology, src, dsts)
        tree_bytes = wire * len(tree)
        self.multicast_unicast_hop_bytes += unicast_hop_bytes
        self.multicast_tree_hop_bytes += tree_bytes
        if self.config.multicast == "unicast":
            self.charge_batch(src_arr, dsts, np.full(dsts.shape, nbytes, dtype=np.int64), tag)
            return
        # Tree edges: payload crosses each once.
        np.add.at(self.primary.bytes, tree, wire)
        self.primary.packets[tree] += 1
        load = self._tag(tag)
        np.add.at(load.bytes, tree, wire)
        load.max_hops = max(load.max_hops, int(hops.max(initial=0)))
        load.messages += len(dsts)
        load.wire_bytes += wire * len(dsts)
        self.compression_saved_hop_bytes += (nbytes - wire) * int(hops.sum())
        self.multicast_saved_hop_bytes += unicast_hop_bytes - tree_bytes

    def charge_multicast_routes(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, tag: str
    ) -> None:
        """Route a batch of broadcast fan-outs grouped by source.

        ``(src[k], dst[k], nbytes[k])`` rows with a common ``src`` are
        one source's multicast of a single payload (all its rows carry
        the same byte count — the NT subbox broadcast pattern), handled
        as one spanning tree per source.
        """
        src = np.atleast_1d(np.asarray(src, dtype=np.int64))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.int64))
        nbytes = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), src.shape)
        if not len(src):
            return
        order = np.argsort(src, kind="stable")
        src, dst, nbytes = src[order], dst[order], nbytes[order]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        bounds = np.r_[starts, len(src)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            self.charge_multicast(int(src[lo]), dst[lo:hi], int(nbytes[lo]), tag)

    # -- congestion / reporting ----------------------------------------------

    def phase_times_us(
        self, steps: int = 1, congestion: CongestionModel | None = None
    ) -> dict[str, float]:
        """Per-phase critical-path time, averaged over ``steps``.

        Each phase is limited by its most loaded link; latency counts
        once per hop of the phase's longest route.
        """
        model = congestion or self.congestion
        return {
            tag: model.phase_time_us(load.bytes.max(initial=0) / max(steps, 1), load.max_hops)
            for tag, load in sorted(self.by_tag.items())
        }

    def step_comm_us(self, steps: int = 1, congestion: CongestionModel | None = None) -> float:
        """Summed phase critical paths: the step's communication time
        if no phase overlaps compute (the pessimistic bound)."""
        return float(sum(self.phase_times_us(steps, congestion).values()))

    def multicast_savings(self) -> dict[str, int]:
        """Tree-vs-unicast comparison for all multicast traffic seen."""
        return {
            "unicast_link_bytes": self.multicast_unicast_hop_bytes,
            "tree_link_bytes": self.multicast_tree_hop_bytes,
            "saved_link_bytes": self.multicast_unicast_hop_bytes - self.multicast_tree_hop_bytes,
        }

    def report(
        self, steps: int = 1, congestion: CongestionModel | None = None, top: int = 3
    ) -> dict:
        """Occupancy/congestion summary (the ``repro network`` payload)."""
        model = congestion or self.congestion
        steps = max(int(steps), 1)
        phases = {}
        for tag, load in sorted(self.by_tag.items()):
            peak = int(load.bytes.max(initial=0))
            hot = int(np.argmax(load.bytes)) if peak else 0
            phases[tag] = {
                "messages": load.messages,
                "wire_bytes": load.wire_bytes,
                "link_bytes": int(load.bytes.sum()),
                "max_link_bytes": peak,
                "max_hops": load.max_hops,
                "busiest_link": [
                    int(routing.link_node(hot)),
                    routing.DIRECTION_NAMES[int(routing.link_direction(hot))],
                ] if peak else None,
                "time_us_per_step": model.phase_time_us(peak / steps, load.max_hops),
            }
        return {
            "topology": list(self.topology.dims),
            "links": self.n_links,
            "multicast_mode": self.config.multicast,
            "delta_bits": self.config.delta_bits,
            "steps": steps,
            "phases": phases,
            "link_bytes_total": self.primary.total_bytes(),
            "link_packets_total": self.primary.total_packets(),
            "max_link_bytes": self.primary.max_bytes(),
            "busiest_links": [list(x) for x in self.primary.busiest(top)],
            "multicast": self.multicast_savings(),
            "compression_saved_link_bytes": self.compression_saved_hop_bytes,
            "multicast_saved_link_bytes": self.multicast_saved_hop_bytes,
            "comm_us_per_step": self.step_comm_us(steps, model),
        }

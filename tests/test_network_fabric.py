"""LinkRouter accounting: conservation, segregation, congestion.

The router is an additive accounting layer on SimNetwork; these tests
pin its contracts — per-link byte sums decompose ``hop_bytes``
exactly in every configuration, loop and batch charging produce
identical link loads, recovery traffic (on the fault layer's second
router) never touches the primary pool, and predicted phase time is
monotone in injected congestion.
"""

import numpy as np
import pytest

from repro.fault import FaultyNetwork
from repro.machine.config import ANTON_2008
from repro.network import CongestionModel, LinkRouter, RoutedConfig
from repro.parallel.comm import SimNetwork
from repro.parallel.topology import TorusTopology

DIMS = (4, 2, 8)


def routed_network(config=None, network=SimNetwork):
    topo = TorusTopology(DIMS)
    net = network(topo)
    net.attach_router(LinkRouter(topo, config))
    return net


def random_traffic(net, seed=0, n=200, tag="pairs"):
    rng = np.random.default_rng(seed)
    n_nodes = net.topology.n_nodes
    src = rng.integers(0, n_nodes, size=n)
    dst = rng.integers(0, n_nodes, size=n)
    nbytes = rng.integers(1, 5000, size=n)
    net.send_batch(src, dst, nbytes, tag=tag)
    return src, dst, nbytes


class TestConservation:
    def test_unicast_batch(self):
        net = routed_network()
        random_traffic(net)
        assert net.router.primary.total_bytes() == net.stats.hop_bytes

    def test_loop_equals_batch(self):
        """A loop of send() and one send_batch() produce identical link
        loads, byte for byte, link for link."""
        net_a, net_b = routed_network(), routed_network()
        src, dst, nbytes = random_traffic(net_a, seed=5)
        for s, d, b in zip(src, dst, nbytes):
            net_b.send(int(s), int(d), int(b), tag="pairs")
        assert np.array_equal(net_a.router.primary.bytes, net_b.router.primary.bytes)
        assert np.array_equal(net_a.router.primary.packets, net_b.router.primary.packets)
        assert net_a.stats.hop_bytes == net_b.stats.hop_bytes

    def test_multicast_tree_identity(self):
        """link_bytes + multicast_saved == hop_bytes with tree multicast."""
        net = routed_network()
        rng = np.random.default_rng(2)
        for src in range(0, 16, 3):
            dsts = rng.choice(
                [d for d in range(net.topology.n_nodes) if d != src], size=6, replace=False
            )
            net.multicast(src, list(dsts), 120, tag="position_import")
        r = net.router
        assert r.multicast_saved_hop_bytes > 0
        assert r.primary.total_bytes() + r.multicast_saved_hop_bytes == net.stats.hop_bytes

    def test_multicast_unicast_mode_exact(self):
        net = routed_network(RoutedConfig(multicast="unicast"))
        net.multicast(0, [1, 2, 3, 9], 64, tag="position_import")
        r = net.router
        assert r.multicast_saved_hop_bytes == 0
        assert r.primary.total_bytes() == net.stats.hop_bytes
        # Comparison totals are recorded even when not applied.
        assert r.multicast_savings()["saved_link_bytes"] >= 0

    def test_compression_identity(self):
        net = routed_network(RoutedConfig(delta_bits=8, multicast="unicast"))
        random_traffic(net, tag="position_import")
        random_traffic(net, seed=9, tag="force_export")
        random_traffic(net, seed=10, tag="fft_axis0")  # not compressed
        r = net.router
        assert r.compression_saved_hop_bytes > 0
        assert (
            r.primary.total_bytes() + r.compression_saved_hop_bytes == net.stats.hop_bytes
        )

    def test_compression_respects_min_message(self):
        net = routed_network(RoutedConfig(delta_bits=1, multicast="unicast"))
        net.send(0, 1, 8, tag="position_import")
        # ceil(8 * 1 / 32) = 1 byte, floored at min_message_bytes.
        assert net.router.primary.max_bytes() == ANTON_2008.min_message_bytes

    def test_all_transforms_together(self):
        net = routed_network(RoutedConfig(delta_bits=16, multicast="tree"))
        random_traffic(net, tag="position_import")
        net.multicast(0, list(range(1, 12)), 480, tag="position_import")
        random_traffic(net, seed=4, tag="fft_axis1")
        r = net.router
        lhs = (
            r.primary.total_bytes()
            + r.multicast_saved_hop_bytes
            + r.compression_saved_hop_bytes
        )
        assert lhs == net.stats.hop_bytes

    def test_local_routes_free(self):
        net = routed_network()
        net.send(3, 3, 999, tag="pairs")
        net.send_batch(np.array([5, 5]), np.array([5, 5]), np.array([7, 7]), tag="pairs")
        assert net.router.primary.total_bytes() == 0


class TestRecoverySegregation:
    def test_retransmit_lands_in_recovery_pool(self):
        net = routed_network(network=FaultyNetwork)
        net.send(0, 9, 100, tag="pairs")
        primary = net.router.primary.bytes.copy()
        net.set_recovery(True)
        net.send(0, 9, 100, tag="pairs")
        net.send_batch(np.array([1, 2]), np.array([8, 9]), np.array([50, 60]), tag="pairs")
        net.set_recovery(False)
        assert np.array_equal(net.router.primary.bytes, primary)
        recovery = net.recovery_router
        assert recovery.primary.total_bytes() > 0
        assert recovery.primary.total_bytes() == net.recovery_stats.hop_bytes

    def test_recovery_routes_over_same_links(self):
        """A retransmission occupies exactly the primary message's links,
        just in the other pool."""
        net_a, net_b = routed_network(), routed_network(network=FaultyNetwork)
        net_a.send(2, 13, 100, tag="pairs")
        net_b.set_recovery(True)
        net_b.send(2, 13, 100, tag="pairs")
        assert net_b.router is net_b.recovery_router
        assert np.array_equal(
            net_a.router.primary.bytes, net_b.recovery_router.primary.bytes
        )


class TestCongestion:
    def test_phase_time_monotone_in_congestion(self):
        net = routed_network()
        random_traffic(net)
        times = [
            net.router.step_comm_us(congestion=CongestionModel(bandwidth_scale=s))
            for s in (1.0, 0.5, 0.1)
        ]
        assert times[0] < times[1] < times[2]

    def test_phase_time_components(self):
        model = CongestionModel(link_bytes_per_s=1e9, latency_s=1e-6)
        # 1000 bytes at 1 GB/s = 1 us serialization + 3 hops latency.
        assert model.phase_time_us(1000, 3) == pytest.approx(4.0)
        assert model.phase_time_us(0, 0) == 0.0

    def test_critical_path_is_max_link(self):
        net = routed_network()
        # Two messages over disjoint links; phase time tracks the bigger.
        net.send(0, 1, 10_000, tag="a")
        net.send(16, 17, 50_000, tag="a")
        load = net.router.by_tag["a"]
        assert load.bytes.max() == 50_000
        t = net.router.phase_times_us()
        assert t["a"] == net.router.congestion.phase_time_us(50_000, 1)

    def test_steps_normalization(self):
        net = routed_network()
        net.send(0, 1, 10_000, tag="a")
        t1 = net.router.phase_times_us(steps=1)["a"]
        t10 = net.router.phase_times_us(steps=10)["a"]
        assert t10 < t1


class TestReportShape:
    def test_report_keys(self):
        net = routed_network()
        random_traffic(net, tag="position_import")
        report = net.router.report(steps=4)
        for key in (
            "topology", "links", "multicast_mode", "delta_bits", "steps",
            "phases", "link_bytes_total", "link_packets_total", "max_link_bytes",
            "busiest_links", "multicast", "compression_saved_link_bytes",
            "multicast_saved_link_bytes", "comm_us_per_step",
        ):
            assert key in report, key
        ph = report["phases"]["position_import"]
        for key in (
            "messages", "wire_bytes", "link_bytes", "max_link_bytes",
            "max_hops", "busiest_link", "time_us_per_step",
        ):
            assert key in ph, key
        assert report["links"] == 64 * 6
        assert report["steps"] == 4

    def test_busiest_links_sorted(self):
        net = routed_network()
        random_traffic(net)
        top = net.router.primary.busiest(5)
        loads = [b for _, _, b in top]
        assert loads == sorted(loads, reverse=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoutedConfig(multicast="flood")
        with pytest.raises(ValueError):
            RoutedConfig(delta_bits=0)
        with pytest.raises(ValueError):
            RoutedConfig(delta_bits=40)

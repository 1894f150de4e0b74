"""Unit tests for the torus topology and simulated network."""

import numpy as np
import pytest

from repro.fault import FaultyNetwork
from repro.parallel.comm import SimNetwork
from repro.parallel.topology import TorusTopology


class TestTorusTopology:
    def test_512_node_machine(self):
        topo = TorusTopology.cubic(8)
        assert topo.n_nodes == 512

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TorusTopology((3, 3, 3))
        with pytest.raises(ValueError):
            TorusTopology.for_node_count(100)

    def test_for_node_count_shapes(self):
        assert TorusTopology.for_node_count(512).dims == (8, 8, 8)
        assert TorusTopology.for_node_count(128).dims == (8, 4, 4)
        assert TorusTopology.for_node_count(1).dims == (1, 1, 1)
        assert TorusTopology.for_node_count(2).dims == (2, 1, 1)

    def test_node_id_coord_roundtrip(self):
        topo = TorusTopology((4, 2, 8))
        for node in range(topo.n_nodes):
            assert topo.node_id(topo.coord(node)) == node

    def test_node_id_wraps(self):
        topo = TorusTopology.cubic(4)
        assert topo.node_id((4, 0, 0)) == topo.node_id((0, 0, 0))
        assert topo.node_id((-1, 0, 0)) == topo.node_id((3, 0, 0))

    def test_neighbors_six_on_big_torus(self):
        topo = TorusTopology.cubic(4)
        assert sum(topo.hop_distance(0, n) == 1 for n in range(topo.n_nodes)) == 6

    def test_neighbors_dedup_on_small_torus(self):
        topo = TorusTopology.cubic(2)
        # +1 and -1 alias on a length-2 ring: only 3 distinct neighbors.
        assert sum(topo.hop_distance(0, n) == 1 for n in range(topo.n_nodes)) == 3

    def test_hop_distance_wraparound(self):
        topo = TorusTopology.cubic(8)
        a = topo.node_id((0, 0, 0))
        b = topo.node_id((7, 0, 0))
        assert topo.hop_distance(a, b) == 1
        c = topo.node_id((4, 4, 4))
        assert topo.hop_distance(a, c) == 12

    def test_axis_line(self):
        topo = TorusTopology.cubic(4)
        line = topo.axis_line(topo.node_id((1, 2, 3)), axis=0)
        assert len(line) == 4
        coords = [topo.coord(n) for n in line]
        assert all(c[1] == 2 and c[2] == 3 for c in coords)

    def test_coord_out_of_range(self):
        topo = TorusTopology.cubic(2)
        with pytest.raises(IndexError):
            topo.coord(8)


class TestSimNetwork:
    def test_stats_accumulate(self):
        topo = TorusTopology.cubic(4)
        net = SimNetwork(topo)
        net.send(0, 1, 100, tag="a")
        net.send(0, 2, 50, tag="a")
        net.send(1, 0, 10, tag="b")
        assert net.stats.messages == 3
        assert net.stats.bytes == 160
        assert net.stats.by_tag["a"] == (2, 150)
        assert net.stats.per_node_messages[0] == 2

    def test_local_send_free(self):
        topo = TorusTopology.cubic(2)
        net = SimNetwork(topo)
        net.send(3, 3, 1000, tag="local")
        assert net.stats.messages == 0
        assert net.stats.by_tag == {}

    def test_hop_weighted_bytes(self):
        topo = TorusTopology.cubic(8)
        net = SimNetwork(topo)
        far = topo.node_id((4, 4, 4))
        net.send(0, far, 10, tag="t")
        assert net.stats.hop_bytes == 120

    def test_multicast(self):
        topo = TorusTopology.cubic(2)
        net = SimNetwork(topo)
        net.multicast(0, [0, 1, 2, 3], 8, tag="mc")
        assert net.stats.messages == 3  # the local copy is free
        assert net.stats.by_tag["mc"] == (3, 24)

    def test_reset(self):
        topo = TorusTopology.cubic(2)
        net = SimNetwork(topo)
        net.send(0, 1, 4, tag="t")
        net.reset_stats()
        assert net.stats.messages == 0


class TestRetransmitAccounting:
    """Retransmissions are ordinary sends into the fault layer's
    recovery pool, so fault recovery cannot inflate the primary counters
    the Table 3 comparison reads."""

    def test_send_retransmit_leaves_primary_untouched(self):
        net = FaultyNetwork(TorusTopology.cubic(4))
        net.send(0, 1, 100, tag="a")
        net.set_recovery(True)
        net.send(0, 1, 100, tag="a")
        net.send(0, 1, 100, tag="a")
        net.set_recovery(False)
        assert net.stats is net.primary_stats
        assert net.stats.messages == 1
        assert net.stats.bytes == 100
        assert net.stats.by_tag["a"] == (1, 100)
        assert net.recovery_stats.messages == 2
        assert net.recovery_stats.bytes == 200
        assert net.recovery_stats.by_tag["a"] == (2, 200)

    def test_send_batch_retransmit_leaves_primary_untouched(self):
        topo = TorusTopology.cubic(4)
        net = FaultyNetwork(topo)
        rng = np.random.default_rng(3)
        src = rng.integers(0, topo.n_nodes, 50)
        dst = rng.integers(0, topo.n_nodes, 50)
        nbytes = rng.integers(1, 200, 50)
        net.send_batch(src, dst, nbytes, tag="t")
        primary = (net.stats.messages, net.stats.bytes, dict(net.stats.by_tag))
        net.set_recovery(True)
        net.send_batch(src, dst, nbytes, tag="t")
        net.set_recovery(False)
        assert (net.stats.messages, net.stats.bytes, dict(net.stats.by_tag)) == primary
        assert net.recovery_stats.messages == net.stats.messages
        assert net.recovery_stats.bytes == net.stats.bytes
        assert net.recovery_stats.hop_bytes == net.stats.hop_bytes

    def test_batch_retransmit_matches_send_loop(self):
        topo = TorusTopology.cubic(4)
        loop, batch = FaultyNetwork(topo), FaultyNetwork(topo)
        rng = np.random.default_rng(7)
        src = rng.integers(0, topo.n_nodes, 100)
        dst = rng.integers(0, topo.n_nodes, 100)
        nbytes = rng.integers(1, 300, 100)
        loop.set_recovery(True)
        for s, d, b in zip(src, dst, nbytes):
            loop.send(int(s), int(d), int(b), tag="t")
        batch.set_recovery(True)
        batch.send_batch(src, dst, nbytes, tag="t")
        a, b = batch.recovery_stats, loop.recovery_stats
        assert (a.messages, a.bytes, a.hop_bytes) == (b.messages, b.bytes, b.hop_bytes)
        assert a.by_tag == b.by_tag

    def test_local_retransmit_free(self):
        net = FaultyNetwork(TorusTopology.cubic(2))
        net.set_recovery(True)
        net.send(3, 3, 1000, tag="t")
        assert net.recovery_stats.messages == 0

    def test_reset_clears_retransmit_counters(self):
        net = FaultyNetwork(TorusTopology.cubic(2))
        net.set_recovery(True)
        net.send(0, 1, 100, tag="t")
        net.reset_stats()
        assert net.recovery_stats.messages == 0
        assert net.recovery_stats.by_tag == {}


class TestVectorizedTopologyOps:
    def test_coords_of_matches_coord(self):
        topo = TorusTopology((4, 2, 8))
        nodes = np.arange(topo.n_nodes)
        rows = topo.coords_of(nodes)
        for n in nodes:
            assert tuple(rows[n]) == topo.coord(int(n))

    def test_hop_distances_matches_hop_distance(self):
        topo = TorusTopology((4, 2, 8))
        rng = np.random.default_rng(9)
        a = rng.integers(0, topo.n_nodes, 100)
        b = rng.integers(0, topo.n_nodes, 100)
        vec = topo.hop_distances(a, b)
        for k in range(len(a)):
            assert vec[k] == topo.hop_distance(int(a[k]), int(b[k]))

    def test_send_batch_matches_send_loop(self):
        topo = TorusTopology.cubic(4)
        loop, batch = SimNetwork(topo), SimNetwork(topo)
        rng = np.random.default_rng(5)
        src = rng.integers(0, topo.n_nodes, 200)
        dst = rng.integers(0, topo.n_nodes, 200)
        nbytes = rng.integers(1, 500, 200)
        for s, d, b in zip(src, dst, nbytes):
            loop.send(int(s), int(d), int(b), tag="t")
        batch.send_batch(src, dst, nbytes, tag="t")
        assert batch.stats.messages == loop.stats.messages
        assert batch.stats.bytes == loop.stats.bytes
        assert batch.stats.hop_bytes == loop.stats.hop_bytes
        assert batch.stats.by_tag == loop.stats.by_tag
        np.testing.assert_array_equal(
            batch.stats.per_node_messages, loop.stats.per_node_messages
        )
        np.testing.assert_array_equal(
            batch.stats.per_node_bytes, loop.stats.per_node_bytes
        )

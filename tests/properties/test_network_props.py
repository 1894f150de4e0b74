"""Property-based tests of the routed network fabric.

For arbitrary message sets on arbitrary torus shapes: summing routed
per-link bytes reproduces ``NetworkStats.hop_bytes`` exactly (with the
multicast/compression savings counters closing the identity when
those transforms are on), and primary/recovery segregation survives
routing — recovery charges never perturb a single primary link, and
the fault layer's recovery router closes the same identity over the
recovery pool.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault.inject import FaultyNetwork
from repro.network import LinkRouter, RoutedConfig
from repro.parallel.comm import SimNetwork
from repro.parallel.topology import TorusTopology

dims_strategy = st.sampled_from(
    [(1, 1, 1), (2, 2, 2), (4, 2, 2), (8, 2, 1), (4, 4, 4), (4, 2, 8), (16, 2, 1)]
)

config_strategy = st.sampled_from(
    [
        RoutedConfig(),
        RoutedConfig(multicast="unicast"),
        RoutedConfig(delta_bits=8),
        RoutedConfig(delta_bits=31, multicast="unicast"),
    ]
)


def traffic():
    return st.tuples(
        dims_strategy,
        config_strategy,
        st.integers(0, 2**31 - 1),
        st.integers(1, 120),
    )


def charge_random(net, seed: int, n_messages: int, retransmit_every: int = 0):
    """Drive a deterministic mix of send / send_batch / multicast.

    With ``retransmit_every`` (a :class:`FaultyNetwork` only), every
    that-many-th charge is sent as recovery traffic.
    """
    rng = np.random.default_rng(seed)
    n_nodes = net.topology.n_nodes
    tags = ("position_import", "force_export", "fft_axis0")
    for k in range(n_messages):
        kind = rng.integers(0, 3)
        tag = tags[rng.integers(0, len(tags))]
        retransmit = bool(retransmit_every and k % retransmit_every == 0)
        if retransmit:
            net.set_recovery(True)
        if kind == 0:
            net.send(
                int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes)),
                int(rng.integers(1, 4096)), tag=tag,
            )
        elif kind == 1:
            m = int(rng.integers(1, 8))
            net.send_batch(
                rng.integers(0, n_nodes, size=m), rng.integers(0, n_nodes, size=m),
                rng.integers(1, 4096, size=m), tag=tag,
            )
        else:
            src = int(rng.integers(0, n_nodes))
            m = int(rng.integers(1, min(n_nodes + 1, 6)))
            dsts = rng.choice(n_nodes, size=m, replace=False)
            net.multicast(src, list(dsts), int(rng.integers(1, 4096)), tag=tag)
        if retransmit:
            net.set_recovery(False)


@given(traffic())
@settings(max_examples=30, deadline=None)
def test_link_bytes_conserve_hop_bytes(params):
    """The integer identity holding in every configuration:
    link_bytes + multicast_saved + compression_saved == hop_bytes."""
    dims, config, seed, n_messages = params
    topo = TorusTopology(dims)
    net = SimNetwork(topo)
    net.attach_router(LinkRouter(topo, config))
    charge_random(net, seed, n_messages)
    r = net.router
    lhs = (
        r.primary.total_bytes()
        + r.multicast_saved_hop_bytes
        + r.compression_saved_hop_bytes
    )
    assert lhs == net.stats.hop_bytes
    # Per-tag link arrays partition the primary pool exactly.
    tag_sum = sum(int(load.bytes.sum()) for load in r.by_tag.values())
    assert tag_sum == r.primary.total_bytes()


@given(traffic())
@settings(max_examples=30, deadline=None)
def test_attaching_router_never_changes_flat_stats(params):
    dims, config, seed, n_messages = params
    topo = TorusTopology(dims)
    plain, routed = SimNetwork(topo), SimNetwork(topo)
    routed.attach_router(LinkRouter(topo, config))
    charge_random(plain, seed, n_messages)
    charge_random(routed, seed, n_messages)
    a, b = plain.stats, routed.stats
    assert (a.messages, a.bytes, a.hop_bytes) == (b.messages, b.bytes, b.hop_bytes)
    assert a.by_tag == b.by_tag
    assert np.array_equal(a.per_node_messages, b.per_node_messages)
    assert np.array_equal(a.per_node_bytes, b.per_node_bytes)


@given(traffic())
@settings(max_examples=30, deadline=None)
def test_retransmit_segregation_survives_routing(params):
    """A run with interleaved retransmissions has exactly the clean
    run's primary link loads; the extras land in the recovery pool."""
    dims, config, seed, n_messages = params
    topo = TorusTopology(dims)
    clean, faulted = SimNetwork(topo), FaultyNetwork(topo)
    clean.attach_router(LinkRouter(topo, config))
    faulted.attach_router(LinkRouter(topo, config))
    charge_random(clean, seed, n_messages)
    charge_random(faulted, seed, n_messages, retransmit_every=3)
    # A retransmitted message occupies exactly the links its primary
    # copy would have, just in the other pool — so pool-wise the
    # faulted run decomposes the clean run's loads, link by link.
    assert np.array_equal(
        faulted.router.primary.bytes + faulted.recovery_router.primary.bytes,
        clean.router.primary.bytes,
    )
    # And the faulted run's primary counters stay internally consistent.
    r = faulted.router
    lhs = (
        r.primary.total_bytes()
        + r.multicast_saved_hop_bytes
        + r.compression_saved_hop_bytes
    )
    assert lhs == faulted.stats.hop_bytes


@given(traffic())
@settings(max_examples=20, deadline=None)
def test_faulty_network_recovery_pool_segregation(params):
    """FaultyNetwork in recovery mode routes everything to the recovery
    pool, leaving primary link loads untouched."""
    dims, config, seed, n_messages = params
    topo = TorusTopology(dims)
    net = FaultyNetwork(topo)
    net.attach_router(LinkRouter(topo, config))
    charge_random(net, seed, n_messages)
    primary_bytes = net.router.primary.bytes.copy()
    primary_hop_bytes = net.primary_stats.hop_bytes
    net.set_recovery(True)
    charge_random(net, seed + 1, n_messages)
    net.set_recovery(False)
    assert np.array_equal(net.router.primary.bytes, primary_bytes)
    assert net.primary_stats.hop_bytes == primary_hop_bytes
    r = net.router
    lhs = (
        r.primary.total_bytes()
        + r.multicast_saved_hop_bytes
        + r.compression_saved_hop_bytes
    )
    assert lhs == net.primary_stats.hop_bytes


@given(traffic(), st.sampled_from([4, 8, 16]))
@settings(max_examples=20, deadline=None)
def test_recovery_router_conserves_recovery_hop_bytes(params, delta_bits):
    """The recovery pool keeps the conservation identity too: through a
    routed FaultyNetwork with tree multicast and delta compression,
    recovery link bytes + its savings == ``recovery_stats.hop_bytes``,
    for interleaved retransmissions and whole replayed stretches."""
    dims, _, seed, n_messages = params
    topo = TorusTopology(dims)
    net = FaultyNetwork(topo)
    net.attach_router(LinkRouter(topo, RoutedConfig(multicast="tree", delta_bits=delta_bits)))
    charge_random(net, seed, n_messages, retransmit_every=2)
    net.set_recovery(True)
    charge_random(net, seed + 1, n_messages)
    net.set_recovery(False)
    r = net.recovery_router
    lhs = (
        r.primary.total_bytes()
        + r.multicast_saved_hop_bytes
        + r.compression_saved_hop_bytes
    )
    assert lhs == net.recovery_stats.hop_bytes

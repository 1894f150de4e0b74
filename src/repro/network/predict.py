"""Analytic step-traffic synthesis on large tori (512–4096 nodes).

The functional simulator cannot step a 4096-node machine directly, but
the *shape* of a step's traffic is analytic: the NT import region is
translation-invariant on a homogeneous torus, force export reverses
it, and the distributed FFT's all-to-all phases come from the real
:class:`~repro.fft.DistributedFFT3D` accounting.  This module
synthesizes one step's messages for a benchmark spec at an arbitrary
node count, routes them through a :class:`~repro.network.LinkRouter`,
and reports the congested per-phase critical paths — the communication
side of the Figure 5 prediction.  The compute side stays with
:class:`repro.perf.antonmodel.AntonModel`, which composes the two
(``repro.perf`` imports this module, never the reverse).
"""

from __future__ import annotations

import numpy as np

from repro.fft import DistributedFFT3D
from repro.geometry import Box
from repro.machine.config import ANTON_2008, AntonHardware
from repro.network.fabric import CongestionModel, LinkRouter, RoutedConfig
from repro.parallel.comm import SimNetwork
from repro.parallel.decomposition import SpatialDecomposition
from repro.parallel.nt import tower_plate_boxes
from repro.parallel.topology import TorusTopology

__all__ = ["synthesize_step_router", "predict_comm"]

#: Traffic classes charged every step (vs once per long-range interval).
SHORT_RANGE_TAGS = ("position_import", "force_export")


def _import_offsets(decomp: SpatialDecomposition, cutoff: float) -> np.ndarray:
    """Box offsets of the NT import region, relative to the home box.

    The tower/plate region is translation-invariant on a homogeneous
    torus, so one evaluation at the origin covers every node.
    """
    tower, plate = tower_plate_boxes(decomp, (0, 0, 0), cutoff)
    dims = decomp.dims
    offsets = []
    for bx in sorted(tower | plate):
        off = tuple(int(c) if c <= d // 2 else int(c) - int(d) for c, d in zip(bx, dims))
        if off != (0, 0, 0):
            offsets.append(off)
    return np.asarray(sorted(set(offsets)), dtype=np.int64)


def synthesize_step_router(
    spec,
    n_nodes: int,
    hw: AntonHardware = ANTON_2008,
    config: RoutedConfig | None = None,
) -> tuple[LinkRouter, SimNetwork]:
    """Charge one synthetic time step's traffic onto a routed fabric.

    Uniform density is assumed (true of the solvated Table 4 systems):
    every home box holds ``n_atoms / n_nodes`` atoms.  Charges:

    * ``position_import`` — each node broadcasts its box to every node
      whose tower/plate imports it (one multicast per source);
    * ``force_export`` — the reverse routes, one summed force record
      per imported atom, point-to-point;
    * ``fft_axis{0,1,2}`` — the distributed FFT's six axis all-to-all
      phases (forward + inverse), charged once; callers divide by the
      MTS interval when composing step time.

    Returns the router and the network carrying the flat counters for
    the same traffic (the counter-model comparison).
    """
    topology = TorusTopology.for_node_count(n_nodes)
    decomp = SpatialDecomposition(Box.cubic(spec.side), topology)
    network = SimNetwork(topology)
    router = LinkRouter(topology, config, hw)
    network.attach_router(router)

    atoms_per_node = max(int(round(spec.n_atoms / n_nodes)), 1)
    offsets = _import_offsets(decomp, spec.cutoff)
    dims = np.asarray(topology.dims, dtype=np.int64)
    dst_coords = topology.coords_of(np.arange(n_nodes, dtype=np.int64))
    srcs, dsts = [], []
    for off in offsets:
        src_c = (dst_coords + off) % dims
        src = (src_c[:, 0] * dims[1] + src_c[:, 1]) * dims[2] + src_c[:, 2]
        srcs.append(src)
        dsts.append(np.arange(n_nodes, dtype=np.int64))
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)

    pos_bytes = np.full(src.shape, atoms_per_node * hw.bytes_per_position, dtype=np.int64)
    network.multicast_routes(src, dst, pos_bytes, tag="position_import")

    # Force export: each importing node returns one summed force record
    # per atom of the source box it computed against.
    force_bytes = np.full(src.shape, atoms_per_node * hw.bytes_per_force, dtype=np.int64)
    network.send_batch(dst, src, force_bytes, tag="force_export")

    mesh = spec.mesh_shape
    if all(m % d == 0 for m, d in zip(mesh, topology.dims)):
        DistributedFFT3D(mesh, topology, network).charge_solve()
    return router, network


def predict_comm(
    spec,
    n_nodes: int,
    hw: AntonHardware = ANTON_2008,
    config: RoutedConfig | None = None,
    congestion: CongestionModel | None = None,
) -> dict:
    """Congested communication critical paths of one predicted step.

    Returns ``short_comm_us`` (position import + force export, every
    step), ``long_comm_us`` (the FFT all-to-alls, amortized by the
    caller over the MTS interval), per-phase times, the flat
    counter totals, and the multicast/compression savings.
    """
    router, network = synthesize_step_router(spec, n_nodes, hw=hw, config=config)
    phase_times = router.phase_times_us(steps=1, congestion=congestion)
    short_us = sum(t for tag, t in phase_times.items() if tag in SHORT_RANGE_TAGS)
    long_us = sum(t for tag, t in phase_times.items() if tag.startswith("fft_axis"))
    stats = network.stats
    return {
        "n_nodes": n_nodes,
        "dims": list(router.topology.dims),
        "short_comm_us": short_us,
        "long_comm_us": long_us,
        "phase_times_us": phase_times,
        "counter_bytes": stats.bytes,
        "counter_hop_bytes": stats.hop_bytes,
        "link_bytes_total": router.primary.total_bytes(),
        "max_link_bytes": router.primary.max_bytes(),
        "multicast": router.multicast_savings(),
        "compression_saved_link_bytes": router.compression_saved_hop_bytes,
        "by_tag": {k: list(v) for k, v in stats.by_tag.items()},
    }


"""Simulated distributed 3-D FFT (paper Section 3.2.2).

Anton parallelizes its small (32³) FFT as three phases of 1-D FFTs
oriented along each axis; before each phase the nodes of every axis
line perform an all-to-all so that whole lines land on single nodes.
"This parallelization strategy involves sending a large number of
messages (hundreds per node)" — the opposite of the
few-large-messages strategies that win on commodity clusters.

This class computes the transform *functionally identically* to the
serial radix-2 kernel for any node count (the per-line 1-D FFT is the
same algorithm regardless of distribution — which is what makes the
machine's results bitwise independent of node count), while charging
the simulated network with the messages the real redistribution would
send.
"""

from __future__ import annotations

import numpy as np

from repro.fft.radix2 import fft1d, fft3d, ifft1d
from repro.parallel.comm import SimNetwork
from repro.parallel.topology import TorusTopology

__all__ = ["DistributedFFT3D"]


class DistributedFFT3D:
    """A K³ FFT distributed over a torus of nodes.

    Parameters
    ----------
    mesh_shape:
        Three power-of-two mesh dimensions, each divisible by the
        corresponding torus dimension.
    network:
        Traffic is charged here; pass None for a purely functional
        transform.
    bytes_per_point:
        Wire size of one mesh value.  Anton ships reduced-precision
        fixed-point values; 8 bytes (two 32-bit fixed-point words)
        is the default.
    line_batches:
        Number of separate messages each node uses per peer per phase
        (Anton pipelines sub-line bundles rather than one monolithic
        block, producing its "hundreds of messages per node").
    """

    def __init__(
        self,
        mesh_shape: tuple[int, int, int],
        topology: TorusTopology,
        network: SimNetwork | None = None,
        bytes_per_point: int = 8,
        line_batches: int = 4,
    ):
        for m, d in zip(mesh_shape, topology.dims):
            if m % d:
                raise ValueError(f"mesh dim {m} not divisible by torus dim {d}")
            if m & (m - 1):
                raise ValueError(f"mesh dims must be powers of two, got {m}")
        self.mesh_shape = tuple(mesh_shape)
        self.topology = topology
        self.network = network
        self.bytes_per_point = bytes_per_point
        self.line_batches = line_batches
        # The all-to-all routes are static per axis; cache the
        # (src, dst, nbytes) arrays so each phase is one send_batch.
        self._axis_routes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- functional transforms ------------------------------------------

    #: Axis order of the line phases: the forward transform runs z, y,
    #: x and the inverse undoes it x, y, z.
    FORWARD_AXES = (2, 1, 0)
    INVERSE_AXES = (0, 1, 2)

    def forward(self, mesh: np.ndarray) -> np.ndarray:
        """Forward transform; charges one redistribution per axis."""
        if mesh.shape != self.mesh_shape:
            raise ValueError(f"mesh shape {mesh.shape} != {self.mesh_shape}")
        out = np.asarray(mesh, dtype=np.complex128)
        for axis in self.FORWARD_AXES:
            self._charge_axis_phase(axis)
            out = fft1d(out, axis=axis)
        return out

    def inverse(self, mesh_hat: np.ndarray) -> np.ndarray:
        """Inverse transform (1/N normalized); same traffic as forward."""
        if mesh_hat.shape != self.mesh_shape:
            raise ValueError(f"mesh shape {mesh_hat.shape} != {self.mesh_shape}")
        out = np.asarray(mesh_hat, dtype=np.complex128)
        for axis in self.INVERSE_AXES:
            self._charge_axis_phase(axis)
            out = ifft1d(out, axis=axis)
        return out

    def charge_solve(self) -> None:
        """Charge the redistributions of one forward-plus-inverse solve
        without transforming anything — exactly the traffic of
        :meth:`forward` followed by :meth:`inverse`."""
        for axis in self.FORWARD_AXES + self.INVERSE_AXES:
            self._charge_axis_phase(axis)

    # -- traffic model ----------------------------------------------------

    def points_per_node(self) -> int:
        return int(np.prod(self.mesh_shape)) // self.topology.n_nodes

    def _charge_axis_phase(self, axis: int) -> None:
        """Charge the all-to-all that gathers whole lines along ``axis``.

        Each node owns a (K/p)³-ish block; to give every node of its
        axis line complete lines, it sends each of the (p-1) peers an
        equal 1/p share of its block, split into ``line_batches``
        messages.
        """
        if self.network is None:
            return
        topo = self.topology
        p = topo.dims[axis]
        if p == 1:
            return
        routes = self._axis_routes.get(axis)
        if routes is None:
            share_points = self.points_per_node() // p
            per_msg = max(share_points * self.bytes_per_point // self.line_batches, 4)
            src_l: list[int] = []
            dst_l: list[int] = []
            for node in range(topo.n_nodes):
                for peer in topo.axis_line(node, axis):
                    if peer == node:
                        continue
                    src_l.extend([node] * self.line_batches)
                    dst_l.extend([peer] * self.line_batches)
            routes = (
                np.asarray(src_l, dtype=np.int64),
                np.asarray(dst_l, dtype=np.int64),
                np.full(len(src_l), per_msg, dtype=np.int64),
            )
            self._axis_routes[axis] = routes
        src, dst, nbytes = routes
        # send_batch produces exactly the statistics (and, under fault
        # injection, the same canonical wire-ledger entries) as the
        # per-message loop it replaces.
        self.network.send_batch(src, dst, nbytes, tag=f"fft_axis{axis}")

    def messages_per_node_per_transform(self) -> int:
        """Analytic per-node message count of one 3-D transform."""
        total = 0
        for axis in range(3):
            p = self.topology.dims[axis]
            if p > 1:
                total += (p - 1) * self.line_batches
        return total

    # -- serial reference --------------------------------------------------

    @staticmethod
    def serial_forward(mesh: np.ndarray) -> np.ndarray:
        """The single-node reference; bitwise equal to :meth:`forward`."""
        return fft3d(mesh)

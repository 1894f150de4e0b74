"""Simulated distributed 3-D FFT (paper Section 3.2.2).

Anton parallelizes its small (32³) FFT as three phases of 1-D FFTs
oriented along each axis; before each phase the nodes of every axis
line perform an all-to-all so that whole lines land on single nodes.
"This parallelization strategy involves sending a large number of
messages (hundreds per node)" — the opposite of the
few-large-messages strategies that win on commodity clusters.

This class computes the charge mesh's transform with the engines' own
line transforms (:mod:`repro.kernels.fft`): the real-input line along
z, then complex lines along y and x, each phase whole lines on single
nodes.  A line's arithmetic does not depend on which node holds it, so
the result is bitwise the same for any node count — and the same
values, in natural order, as the spectrum inside every engine's mesh
solve — while the simulated network is charged with the messages the
real redistribution would send.
"""

from __future__ import annotations

import numpy as np

from repro.fft.radix2 import fft1d, ifft1d, irfft1d, rfft1d
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
    """

    #: Wire size of one mesh value: Anton ships reduced-precision
    #: fixed-point values, two 32-bit words.
    bytes_per_point = 8
    #: Separate messages each node sends per peer per phase (Anton
    #: pipelines sub-line bundles rather than one monolithic block,
    #: producing its "hundreds of messages per node").
    line_batches = 4

    def __init__(
        self,
        mesh_shape: tuple[int, int, int],
        topology: TorusTopology,
        network: SimNetwork | None = None,
    ):
        for m, d in zip(mesh_shape, topology.dims):
            if m % d:
                raise ValueError(f"mesh dim {m} not divisible by torus dim {d}")
            if m & (m - 1):
                raise ValueError(f"mesh dims must be powers of two, got {m}")
        self.mesh_shape = tuple(mesh_shape)
        self.topology = topology
        self.network = network
        # The all-to-all routes are static per axis; cache the
        # (src, dst, nbytes) arrays so each phase is one send_batch.
        self._axis_routes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- functional transforms ------------------------------------------

    #: Axis order of the line phases: the forward transform runs z, y,
    #: x and the inverse undoes it x, y, z.
    FORWARD_AXES = (2, 1, 0)
    INVERSE_AXES = (0, 1, 2)

    def forward(self, mesh: np.ndarray) -> np.ndarray:
        """Forward transform of a real mesh; charges one redistribution per axis.

        The full complex spectrum in natural order: the half spectrum
        (``kz <= mz/2``) the z, y and x phases compute, the rest its
        Hermitian mirror ``conj(X[-k])``.  A complex mesh must have a
        zero imaginary part.
        """
        mesh = np.asarray(mesh)
        if mesh.shape != self.mesh_shape:
            raise ValueError(f"mesh shape {mesh.shape} != {self.mesh_shape}")
        if np.iscomplexobj(mesh):
            if np.any(mesh.imag):
                raise ValueError("DistributedFFT3D transforms real (charge) meshes")
            mesh = mesh.real
        self._charge_axis_phase(2)
        half = rfft1d(mesh)
        for axis in self.FORWARD_AXES[1:]:
            self._charge_axis_phase(axis)
            half = fft1d(half, axis=axis)
        mx, my, mz = self.mesh_shape
        out = np.empty(self.mesh_shape, dtype=np.complex128)
        out[..., : mz // 2 + 1] = half
        kx, ky = -np.arange(mx) % mx, -np.arange(my) % my
        mirror = half[np.ix_(kx, ky, np.arange(mz // 2 - 1, 0, -1))]
        out[..., mz // 2 + 1 :] = np.conj(mirror)
        return out

    def inverse(self, mesh_hat: np.ndarray) -> np.ndarray:
        """Inverse transform (1/N normalized) of a real mesh's spectrum;
        same traffic as forward.

        Reads the half spectrum ``kz <= mz/2`` only, as the engines'
        complex-to-real solve does, and returns the real mesh.
        """
        if mesh_hat.shape != self.mesh_shape:
            raise ValueError(f"mesh shape {mesh_hat.shape} != {self.mesh_shape}")
        out = np.asarray(mesh_hat, dtype=np.complex128)[..., : self.mesh_shape[2] // 2 + 1]
        for axis in self.INVERSE_AXES[:2]:
            self._charge_axis_phase(axis)
            out = ifft1d(out, axis=axis)
        self._charge_axis_phase(2)
        return irfft1d(out)

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
            # Node by node, its peers in line order, each message of a
            # route's batch in turn.
            peers = topo.axis_lines(axis)
            nodes = np.broadcast_to(np.arange(topo.n_nodes)[:, None], peers.shape)
            remote = peers != nodes
            src = np.repeat(nodes[remote], self.line_batches)
            routes = (
                src,
                np.repeat(peers[remote], self.line_batches),
                np.full(len(src), per_msg, dtype=np.int64),
            )
            self._axis_routes[axis] = routes
        src, dst, nbytes = routes
        # send_batch produces exactly the statistics (and, under fault
        # injection, the same canonical wire-ledger entries) as the
        # per-message loop it replaces.
        self.network.send_batch(src, dst, nbytes, tag=f"fft_axis{axis}")

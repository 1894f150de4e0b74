"""Toroidal node topology (paper Section 2.2).

"Anton comprises a set of nodes connected in a toroidal topology; the
512-node machines ... have an 8x8x8 toroidal topology, corresponding to
an 8x8x8 partitioning of a chemical system with periodic boundary
conditions."  Node counts are powers of two from 1 to 32768.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TorusTopology"]

#: Tori up to this many nodes (the paper's 512-node machine) look hop
#: counts up in :attr:`TorusTopology.hop_table`, 2 MiB at 512 nodes; the
#: larger ones only the predictive network models build (4,096 nodes
#: would take 128 MiB) compute them from coordinates.
HOP_TABLE_MAX_NODES = 512


@dataclass(frozen=True)
class TorusTopology:
    """A dx × dy × dz torus of nodes.

    Node ids are flat indices in C order of their (x, y, z) coordinates.
    """

    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        n = self.n_nodes
        if n & (n - 1):
            raise ValueError(
                f"node count {n} is not a power of two (the current software "
                "only supports power-of-two configurations, paper footnote 3)"
            )

    @classmethod
    def cubic(cls, side: int) -> "TorusTopology":
        return cls((side, side, side))

    @classmethod
    def for_node_count(cls, n: int) -> "TorusTopology":
        """The most-cubic torus with n nodes (n a power of two).

        Factors n = 2^e into dims (2^a, 2^b, 2^c) with a >= b >= c and
        a - c <= 1, matching how Anton machines are partitioned.
        """
        if n < 1 or n & (n - 1):
            raise ValueError(f"node count must be a power of two, got {n}")
        e = n.bit_length() - 1
        a = (e + 2) // 3
        b = (e + 1) // 3
        c = e // 3
        return cls((2**a, 2**b, 2**c))

    @property
    def n_nodes(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    def node_id(self, coord: tuple[int, int, int]) -> int:
        x, y, z = (c % d for c, d in zip(coord, self.dims))
        return (x * self.dims[1] + y) * self.dims[2] + z

    def coord(self, node: int) -> tuple[int, int, int]:
        dx, dy, dz = self.dims
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range")
        return (node // (dy * dz), (node // dz) % dy, node % dz)

    @cached_property
    def coord_table(self) -> np.ndarray:
        """``(n_nodes, 3)`` int64: row ``k`` is :meth:`coord` of node ``k``.
        Built once per topology (the traffic accounting looks coordinates
        up several times a step)."""
        nodes = np.arange(self.n_nodes, dtype=np.int64)
        dy, dz = self.dims[1], self.dims[2]
        return np.stack((nodes // (dy * dz), (nodes // dz) % dy, nodes % dz), axis=-1)

    def coords_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`coord`: (x, y, z) rows for an id array."""
        return self.coord_table[np.asarray(nodes, dtype=np.int64)]

    @cached_property
    def hop_table(self) -> np.ndarray:
        """``(n_nodes, n_nodes)`` int64: entry ``[a, b]`` is
        :meth:`hop_distance` of nodes ``a`` and ``b``.  Built once per
        topology, one ring-distance pass per axis over
        :attr:`coord_table`."""
        c = self.coord_table
        table = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        for axis, d in enumerate(self.dims):
            diff = np.abs(c[:, None, axis] - c[None, :, axis])
            table += np.minimum(diff, d - diff)
        return table

    def hop_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hop_distance` over two node-id arrays: entries
        of :attr:`hop_table` on a torus of at most
        :data:`HOP_TABLE_MAX_NODES` nodes, else ring distances of their
        coordinates."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.n_nodes <= HOP_TABLE_MAX_NODES:
            return self.hop_table[a, b]
        diff = np.abs(self.coords_of(a) - self.coords_of(b))
        dims = np.asarray(self.dims, dtype=np.int64)
        return np.sum(np.minimum(diff, dims - diff), axis=-1)

    def hop_distance(self, a: int, b: int) -> int:
        """Minimum torus hop count between two nodes."""
        ca, cb = self.coord(a), self.coord(b)
        total = 0
        for x1, x2, d in zip(ca, cb, self.dims):
            diff = abs(x1 - x2)
            total += min(diff, d - diff)
        return total

    def axis_lines(self, axis: int) -> np.ndarray:
        """``(n_nodes, dims[axis])`` int64: row ``k`` holds the ids of the
        nodes that share node ``k``'s coordinates except ``axis``, in
        ascending coordinate along it (node ``k`` among them).

        These are the all-to-all groups of the distributed FFT's
        per-axis phases.
        """
        c = np.repeat(self.coord_table[:, None, :], self.dims[axis], axis=1)
        c[:, :, axis] = np.arange(self.dims[axis])
        return (c[..., 0] * self.dims[1] + c[..., 1]) * self.dims[2] + c[..., 2]

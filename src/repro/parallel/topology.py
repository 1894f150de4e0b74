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

    def hop_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hop_distance` over two node-id arrays."""
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

    def axis_line(self, node: int, axis: int) -> list[int]:
        """All node ids sharing this node's coordinates except ``axis``.

        These are the all-to-all groups of the distributed FFT's
        per-axis phases.
        """
        c = list(self.coord(node))
        out = []
        for v in range(self.dims[axis]):
            c2 = list(c)
            c2[axis] = v
            out.append(self.node_id(tuple(c2)))
        return out

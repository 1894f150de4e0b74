"""Spatial decomposition of a periodic box over a node torus.

"Anton distributes particle data across nodes using a spatial
decomposition, in which the space to be simulated is divided into a
regular grid of boxes, and each node updates the positions and momenta
of atoms in one box, referred to as the home box" (Section 3.2).

Constraint groups are kept whole: every atom of a group lives on the
node of the group's first atom (Section 3.2.4's "we ensure that all
atoms in a constraint group reside on the same node").
"""

from __future__ import annotations

import numpy as np

from repro.forcefield import Topology
from repro.geometry import Box
from repro.parallel.topology import TorusTopology

__all__ = ["SpatialDecomposition"]


class SpatialDecomposition:
    """Maps positions to home boxes/nodes on a torus.

    Parameters
    ----------
    subbox_divisions:
        Divide each home box into s×s×s subboxes for the NT method's
        match-efficiency optimization (Table 3).
    """

    def __init__(self, box: Box, topology: TorusTopology, subbox_divisions: int = 1):
        self.box = box
        self.torus = topology
        self.dims = np.asarray(topology.dims, dtype=np.int64)
        self.node_box = box.lengths / self.dims
        if subbox_divisions < 1:
            raise ValueError("subbox_divisions must be >= 1")
        self.subbox_divisions = subbox_divisions
        self.subbox_size = self.node_box / subbox_divisions

    # -- geometric assignment --------------------------------------------

    def box_coord(self, positions: np.ndarray) -> np.ndarray:
        """Home-box (node) coordinates of positions, shape (n, 3)."""
        return self._box_coord(self.box.wrap(np.asarray(positions, dtype=np.float64)))

    def _box_coord(self, wrapped: np.ndarray) -> np.ndarray:
        c = np.floor(wrapped / self.node_box).astype(np.int64)
        return np.minimum(c, self.dims - 1)

    def _node_id(self, c: np.ndarray) -> np.ndarray:
        return (c[:, 0] * self.dims[1] + c[:, 1]) * self.dims[2] + c[:, 2]

    def node_of(self, positions: np.ndarray) -> np.ndarray:
        """Flat node ids of positions' home boxes."""
        return self._node_id(self.box_coord(positions))

    def node_of_wrapped(self, wrapped: np.ndarray) -> np.ndarray:
        """:meth:`node_of` for coordinates already wrapped into [0, L)
        (what :meth:`Box.wrap` returned): no second wrap."""
        return self._node_id(self._box_coord(wrapped))

    def subbox_coord(self, positions: np.ndarray) -> np.ndarray:
        """Global subbox coordinates (node grid x subbox divisions)."""
        pos = self.box.wrap(np.asarray(positions, dtype=np.float64))
        c = np.floor(pos / self.subbox_size).astype(np.int64)
        return np.minimum(c, self.dims * self.subbox_divisions - 1)

    # -- ownership with constraint groups ----------------------------------

    def assign_atoms(
        self, positions: np.ndarray, topology: Topology | None = None,
        nodes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Owning node per atom.

        Geometric assignment, overridden so each constraint group (and
        its virtual sites) lives wholly on the node owning its first
        atom.  The expanded NT import region (Section 3.2.4) absorbs
        the resulting off-home-box residency.  ``nodes``, when given, is
        :meth:`node_of` of ``positions`` already looked up (not modified).
        """
        owners = self.node_of(positions) if nodes is None else nodes.copy()
        if topology is not None:
            member, leader = topology.constraint_group_members()
            owners[member] = owners[leader]
        return owners

    def max_group_extent(self, positions: np.ndarray, topology: Topology) -> float:
        """Largest distance of any constraint-group atom from the
        group's first atom — sets the import-region expansion margin."""
        member, leader = topology.constraint_group_members()
        if not len(member):
            return 0.0
        return float(np.max(self.box.distance(positions[member], positions[leader])))

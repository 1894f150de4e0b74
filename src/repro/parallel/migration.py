"""Deferred atom migration (paper Section 3.2.4).

"Anton mitigates this expense by performing migration operations only
every N time steps, where N is typically between 4 and 8."  Between
migrations an atom may reside on an 'incorrect' node — because its
constraint group straddles a boundary, or because it crossed one since
the last migration — and "a slight expansion of the NT method import
region is ... sufficient to ensure execution of the correct set of
range-limited interactions."

:class:`MigrationSchedule` tracks ownership between migrations, counts
the migration traffic, and computes the import-margin expansion needed
for a given interval and velocity bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forcefield import Topology
from repro.parallel.decomposition import SpatialDecomposition

__all__ = ["MigrationSchedule", "MigrationEvent"]


@dataclass(frozen=True)
class MigrationEvent:
    """Statistics of one migration pass."""

    step: int
    n_migrated: int
    max_displacement_error: float  # how far owners had drifted (boxes)


class MigrationSchedule:
    """Ownership tracking with every-N migration.

    Parameters
    ----------
    interval:
        Steps between migration passes (paper: 4-8).
    """

    #: Conservative bound on per-step atomic displacement (A/step); with
    #: 2.5 fs steps even hot hydrogens stay under ~0.1 A/step.
    max_speed = 0.1

    def __init__(
        self,
        decomp: SpatialDecomposition,
        topology: Topology,
        interval: int = 4,
    ):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.decomp = decomp
        self.topology = topology
        self.interval = interval
        self.owners: np.ndarray | None = None
        self.steps_since_migration = 0
        self.events: list[MigrationEvent] = []
        self._step = 0

    def import_margin(self, positions: np.ndarray | None = None) -> float:
        """Import-region expansion (A) guaranteeing pair coverage.

        Two contributions (Section 3.2.4): drift of up to
        ``interval * max_speed`` per atom between migrations, and
        constraint groups straddling boxes (bounded by the measured
        group extent when positions are given).
        """
        margin = 2.0 * self.interval * self.max_speed  # both atoms may drift
        if positions is not None and self.topology.n_constraints:
            margin += self.decomp.max_group_extent(positions, self.topology)
        return margin

    def initialize(self, positions: np.ndarray) -> np.ndarray:
        """Initial ownership (a full migration)."""
        self.owners = self.decomp.assign_atoms(positions, self.topology)
        self.steps_since_migration = 0
        return self.owners

    def step(self, positions: np.ndarray, nodes: np.ndarray | None = None) -> MigrationEvent | None:
        """Advance one step; migrate if the interval has elapsed.

        ``nodes`` optionally supplies the positions' home nodes, already
        looked up.  Returns the event on migration steps, else None.
        """
        if self.owners is None:
            raise RuntimeError("call initialize() first")
        self._step += 1
        self.steps_since_migration += 1
        if self.steps_since_migration < self.interval:
            return None
        correct = self.decomp.assign_atoms(positions, self.topology, nodes)
        moved = correct != self.owners
        # Displacement error: how many box widths the stale owner is off
        # (diagnostic for the import-margin bound).
        err = 0.0
        if np.any(moved):
            stale = self.decomp.torus
            box_w = float(np.min(self.decomp.node_box))
            hops = [
                stale.hop_distance(int(a), int(b))
                for a, b in zip(self.owners[moved], correct[moved])
            ]
            err = max(hops) * box_w if hops else 0.0
        event = MigrationEvent(
            step=self._step, n_migrated=int(np.count_nonzero(moved)), max_displacement_error=err
        )
        self.events.append(event)
        self.owners = correct
        self.steps_since_migration = 0
        return event

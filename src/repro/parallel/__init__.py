"""Parallelization substrate: torus topology, simulated network,
spatial decomposition, the NT method, and deferred migration."""

from repro.parallel.comm import NetworkStats, SimNetwork
from repro.parallel.decomposition import SpatialDecomposition
from repro.parallel.migration import MigrationEvent, MigrationSchedule
from repro.parallel.nt import (
    NTAssignment,
    export_route_counts,
    match_efficiency,
    nt_assign_pairs,
    nt_box_pairs,
    nt_node_tables,
    set_members,
    tower_plate_boxes,
)
from repro.parallel.topology import TorusTopology

__all__ = [
    "NetworkStats",
    "SimNetwork",
    "SpatialDecomposition",
    "MigrationEvent",
    "MigrationSchedule",
    "NTAssignment",
    "export_route_counts",
    "match_efficiency",
    "nt_assign_pairs",
    "nt_box_pairs",
    "nt_node_tables",
    "set_members",
    "tower_plate_boxes",
    "TorusTopology",
]

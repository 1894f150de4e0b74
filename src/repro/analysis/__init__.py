"""Analysis: energy drift, force-error metrics, NMR order parameters,
Kabsch superposition and folding-event detection."""

from repro.analysis.energy import DriftResult, energy_drift
from repro.analysis.forces import ForceError, analytic_forces, force_error, rms_force
from repro.analysis.order_params import nh_vectors, order_parameters
from repro.analysis.rmsd import (
    FoldingEvent,
    detect_folding_events,
    kabsch_align,
    radius_of_gyration,
)
from repro.analysis.trajectory import (
    drift_from_energy_log,
    load_positions,
    order_parameters_from_trajectory,
)

__all__ = [
    "DriftResult",
    "energy_drift",
    "ForceError",
    "analytic_forces",
    "force_error",
    "rms_force",
    "nh_vectors",
    "order_parameters",
    "FoldingEvent",
    "detect_folding_events",
    "kabsch_align",
    "radius_of_gyration",
    "drift_from_energy_log",
    "load_positions",
    "order_parameters_from_trajectory",
]

"""Offline analysis straight from durable run-store files.

The paper's analyses (order parameters for Figure 6, energy drift for
Table 4) were computed from stored trajectories of multi-month runs,
not from live simulation state.  These helpers mirror that workflow on
our on-disk formats: a :class:`~repro.io.TrajectoryReader` decodes the
stored integer state codes to bit-exact positions, so every metric
computed offline equals the in-memory value to the last bit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.energy import DriftResult, energy_drift
from repro.analysis.order_params import nh_vectors, order_parameters
from repro.analysis.rmsd import kabsch_align
from repro.io import TrajectoryReader, read_energy_log

__all__ = [
    "load_positions",
    "order_parameters_from_trajectory",
    "drift_from_energy_log",
]


def load_positions(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """(steps, positions) of every frame of a trajectory file.

    Positions are the exact float64 values the producing run held at
    each stored step.
    """
    with TrajectoryReader(path) as reader:
        steps, frames = [], []
        for i in range(len(reader)):
            frame = reader.frame(i)
            steps.append(frame.step)
            frames.append(reader.positions(frame))
    return np.asarray(steps, dtype=np.int64), frames


def order_parameters_from_trajectory(
    path,
    n_idx: np.ndarray,
    h_idx: np.ndarray,
    align_subset: np.ndarray | None = None,
) -> np.ndarray:
    """S² per residue computed from a stored trajectory.

    Frames are aligned to the first stored frame (optionally on
    ``align_subset``, e.g. the heavy backbone) before the N-H vectors
    are accumulated, matching the live-snapshot analysis path.
    """
    _steps, frames = load_positions(path)
    if len(frames) < 2:
        raise ValueError(f"{path}: need at least 2 frames for order parameters")
    ref = frames[0]
    aligned = [kabsch_align(f, ref, subset=align_subset) for f in frames]
    return order_parameters(nh_vectors(aligned, n_idx, h_idx))


def drift_from_energy_log(path, n_dof: int) -> DriftResult:
    """Energy drift fitted to a streamed JSONL energy log.

    Reads the records back (deduplicated across resumes, sorted by
    step) and runs the Table 4 least-squares fit.
    """
    records = read_energy_log(path)
    return energy_drift(records, n_dof)

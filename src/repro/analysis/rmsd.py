"""Structural analysis: Kabsch superposition, radius of gyration, and
folding/unfolding event detection (Figure 7).

"We observed a sequence of folding and unfolding events" — detected
here as threshold crossings (with hysteresis) of the RMSD-to-native or
compactness trace of a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "kabsch_align",
    "radius_of_gyration",
    "FoldingEvent",
    "detect_folding_events",
]


def _kabsch_rotation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Optimal proper rotation taking centered p onto centered q."""
    h = p.T @ q
    u, _s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def kabsch_align(
    coords: np.ndarray, reference: np.ndarray, subset: np.ndarray | None = None
) -> np.ndarray:
    """Superpose ``coords`` onto ``reference`` (translation + rotation).

    Used to remove overall tumbling before computing internal-motion
    observables like N-H order parameters.  With ``subset``, the
    transform is fitted on those atom indices only (e.g. the backbone)
    and applied to all atoms — floppy side groups then contribute
    motion, not alignment noise.
    """
    p = np.asarray(coords, dtype=np.float64)
    q = np.asarray(reference, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("coordinate sets must match in shape")
    sel = slice(None) if subset is None else np.asarray(subset)
    p_fit = p[sel]
    q_fit = q[sel]
    p_com = p_fit.mean(axis=0)
    q_com = q_fit.mean(axis=0)
    rot = _kabsch_rotation(p_fit - p_com, q_fit - q_com)
    return (rot @ (p - p_com).T).T + q_com


def radius_of_gyration(coords: np.ndarray, masses: np.ndarray | None = None) -> float:
    """Mass-weighted radius of gyration (compactness measure)."""
    c = np.asarray(coords, dtype=np.float64)
    if masses is None:
        masses = np.ones(len(c))
    m = np.asarray(masses, dtype=np.float64)
    com = np.average(c, axis=0, weights=m)
    return float(np.sqrt(np.average(np.sum((c - com) ** 2, axis=1), weights=m)))


@dataclass(frozen=True)
class FoldingEvent:
    """One transition between folded and unfolded states."""

    frame: int
    kind: str  # "fold" or "unfold"
    value: float


def detect_folding_events(
    trace: np.ndarray,
    folded_below: float,
    unfolded_above: float,
) -> list[FoldingEvent]:
    """Hysteresis threshold detection of folding/unfolding transitions.

    ``trace`` is a per-frame order parameter that is low when folded
    (e.g. RMSD to native, or Rg).  The state flips to folded when the
    trace drops below ``folded_below`` and to unfolded when it rises
    above ``unfolded_above``; the gap suppresses flicker.
    """
    if folded_below >= unfolded_above:
        raise ValueError("need folded_below < unfolded_above for hysteresis")
    trace = np.asarray(trace, dtype=np.float64)
    events: list[FoldingEvent] = []
    state = "folded" if trace[0] < folded_below else "unfolded"
    for f, v in enumerate(trace):
        if state == "unfolded" and v < folded_below:
            state = "folded"
            events.append(FoldingEvent(frame=f, kind="fold", value=float(v)))
        elif state == "folded" and v > unfolded_above:
            state = "unfolded"
            events.append(FoldingEvent(frame=f, kind="unfold", value=float(v)))
    return events

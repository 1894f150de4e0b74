"""Calibrated per-node cost model of an Anton machine.

Task times decompose as ``overhead + work / hardware_rate``:

* hardware rates come straight from the paper's Section 2.2 numbers
  (32 PPIPs x 970 MHz, 256 match units x 485 MHz, one correction-
  pipeline pair per cycle, ...);
* per-task overheads (pipeline fill, import latency, on-chip staging)
  are calibrated once against Table 2's Anton large-cutoff column for
  DHFR on one node of a 512-node machine, plus a per-step bookkeeping
  constant anchored to the measured 16.4 us/day DHFR rate;
* everything else — the small-cutoff column, every other system size,
  other node counts — is then a prediction.

EXPERIMENTS.md records which numbers are anchors and which are
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.config import ANTON_2008, AntonHardware
from repro.machine.htis import HTISModel
from repro.perf.workload import StepWorkload
from repro.perf.x86model import TaskProfile

__all__ = ["AntonModel"]

#: Calibration anchors: Table 2, Anton, DHFR, large cutoff (13 A) +
#: coarse mesh (32^3), per node of a 512-node machine.  Microseconds.
_ANCHOR_COARSE = {
    "range_limited": 1.9,
    "fft": 8.9,
    "mesh_interpolation": 2.0,
    "correction": 2.5,
    "bonded": 4.1,
    "integration": 1.6,
}
#: The fine-mesh FFT anchor (64^3) pins the per-point slope of the
#: latency-dominated distributed FFT.
_ANCHOR_FFT_FINE_US = 24.7
_ANCHOR_NODES = 512
#: Time step (fs) and MTS interval of every Table 4 benchmark: the
#: long-range forces are evaluated every second step.
DT_FS = 2.5
MTS_INTERVAL = 2

#: Fraction of bonded-force time on the critical path (the rest
#: overlaps HTIS work); fit from Table 2's totals.
_BONDED_CRITICAL = 0.71

#: Per-step bookkeeping/host overhead, anchored to DHFR's measured
#: 16.4 us/day (Section 5.1).
_STEP_OVERHEAD_US = 3.2


@dataclass(frozen=True)
class _DHFRCoarseWork:
    """The anchor workload (DHFR, 13 A, 32^3, per node of 512)."""

    interactions: float = 21237.0          # 3.61e6 pairs * (13/9)^3 / 512
    mesh_points_per_node: float = 64.0     # 32^3 / 512
    mesh_points_per_node_fine: float = 512.0
    spread_interactions: float = 18800.0   # 46 atoms * 204 pts * 2 passes
    correction_pairs: float = 63.7
    bonded_cost: float = 21.6
    atoms: float = 46.0


class AntonModel:
    """Per-node task times (microseconds) for Anton workloads."""

    def __init__(self, hw: AntonHardware = ANTON_2008):
        self.hw = hw
        self.htis = HTISModel(hw)
        a = _DHFRCoarseWork()
        # Range-limited: PPIP-rate work plus calibrated overhead.
        ppip_us = a.interactions / hw.interactions_per_second * 1e6
        self.rl_overhead_us = _ANCHOR_COARSE["range_limited"] - ppip_us
        # FFT: latency floor + per-point slope from the two mesh anchors.
        self.fft_slope_us = (_ANCHOR_FFT_FINE_US - _ANCHOR_COARSE["fft"]) / (
            a.mesh_points_per_node_fine - a.mesh_points_per_node
        )
        self.fft_floor_us = _ANCHOR_COARSE["fft"] - self.fft_slope_us * a.mesh_points_per_node
        # Mesh interpolation on the HTIS: slope from the coarse/fine
        # anchor pair (2.0 us at 18.8k vs 9.5 us at 150k interactions).
        self.mi_slope_us = (9.5 - _ANCHOR_COARSE["mesh_interpolation"]) / (150000.0 - a.spread_interactions)
        self.mi_overhead_us = _ANCHOR_COARSE["mesh_interpolation"] - self.mi_slope_us * a.spread_interactions
        # Correction pipeline: one pair per flexible cycle.
        corr_rate_us = 1.0 / hw.clock_flexible_hz * 1e6
        self.corr_overhead_us = _ANCHOR_COARSE["correction"] - a.correction_pairs * corr_rate_us
        self.corr_rate_us = corr_rate_us
        # Bonded on the GCs: calibrated cost-unit time + overhead.
        self.bonded_unit_us = 0.05
        self.bonded_overhead_us = _ANCHOR_COARSE["bonded"] - a.bonded_cost * self.bonded_unit_us
        # Integration (GCs): per-atom slope + overhead.
        self.integ_atom_us = 0.005
        self.integ_overhead_us = _ANCHOR_COARSE["integration"] - a.atoms * self.integ_atom_us

    # -- per-task times -----------------------------------------------------

    def profile(self, w: StepWorkload, n_nodes: int = 512) -> TaskProfile:
        """Per-node task times (us) for a whole-machine workload."""
        pn = w.per_node(n_nodes)
        htis = self.htis.evaluate(
            max(pn.pairs_considered, pn.pairs_within_cutoff), pn.pairs_within_cutoff
        )
        spread = pn.n_atoms * pn.spreading_points_per_atom * 2.0
        return TaskProfile(
            range_limited=self.rl_overhead_us + htis.time_s * 1e6,
            fft=self.fft_floor_us + self.fft_slope_us * pn.mesh_points,
            mesh_interpolation=self.mi_overhead_us + self.mi_slope_us * spread,
            correction=self.corr_overhead_us + self.corr_rate_us * pn.correction_pairs,
            bonded=self.bonded_overhead_us + self.bonded_unit_us * pn.bonded_cost,
            integration=self.integ_overhead_us + self.integ_atom_us * pn.n_atoms,
        )

    # -- step composition ------------------------------------------------------

    def long_range_us(self, p: TaskProfile) -> float:
        """Critical-path time of the long-range chain (spread -> FFT ->
        interpolate); corrections overlap on the flexible subsystem."""
        return p.fft + p.mesh_interpolation

    def short_us(self, p: TaskProfile) -> float:
        """Critical-path time of the every-step work."""
        return max(p.range_limited, _BONDED_CRITICAL * p.bonded) + p.integration

    def step_us(
        self,
        w: StepWorkload,
        n_nodes: int = 512,
        short_comm_us: float = 0.0,
        long_comm_us: float = 0.0,
    ) -> float:
        """Average wall time of one time step (us), at :data:`MTS_INTERVAL`.

        Each half of the step takes the *longer* of its compute chain
        and its congested communication critical path (from
        :func:`repro.network.predict.predict_comm`) — compute and
        communication overlap, but neither hides a longer partner.  The
        defaults (no communication) assume it hides under compute.
        """
        p = self.profile(w, n_nodes)
        return (
            _STEP_OVERHEAD_US
            + max(self.short_us(p), float(short_comm_us))
            + max(self.long_range_us(p), float(long_comm_us)) / MTS_INTERVAL
        )

    def total_step_us_single_rate(self, w: StepWorkload, n_nodes: int = 512) -> float:
        """Table 2's 'total' row: every task every step, with overlap."""
        p = self.profile(w, n_nodes)
        return self.short_us(p) + self.long_range_us(p)

    def us_per_day(
        self,
        w: StepWorkload,
        n_nodes: int = 512,
        short_comm_us: float = 0.0,
        long_comm_us: float = 0.0,
    ) -> float:
        """Simulated microseconds per wall-clock day (Figure 5's axis).

        Every benchmark of Table 4 steps at :data:`DT_FS`.
        """
        step = self.step_us(w, n_nodes, short_comm_us, long_comm_us)
        steps_per_day = 86400e6 / step
        return steps_per_day * DT_FS * 1e-9

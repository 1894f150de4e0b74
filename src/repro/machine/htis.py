"""High-Throughput Interaction Subsystem model (paper Sections 2.2, 3.2.1).

The HTIS streams plate atoms past tower atoms: 256 low-precision match
units test candidate pairs (eight tower atoms per plate atom per
cycle), survivors pass through a concentrator into the PPIP input
queues, and 32 pairwise point interaction pipelines evaluate one
interaction per 970 MHz cycle each.

"As long as the average number of such pairs per cycle per PPIP is at
least one, the PPIPs will approach full utilization" — i.e. the HTIS
is PPIP-bound when ``match_efficiency >= pairs_needed_per_cycle``, and
match-unit-bound when low match efficiency starves the pipelines
(the problem subboxes solve, Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.config import ANTON_2008, AntonHardware

__all__ = ["HTISModel", "HTISTiming"]


@dataclass(frozen=True)
class HTISTiming:
    """Timing breakdown of one HTIS workload."""

    pairs_considered: float
    interactions: float
    match_efficiency: float
    match_limited_s: float
    ppip_limited_s: float

    @property
    def time_s(self) -> float:
        """The binding constraint sets the time."""
        return max(self.match_limited_s, self.ppip_limited_s)


class HTISModel:
    """Throughput model of one node's HTIS."""

    def __init__(self, hw: AntonHardware = ANTON_2008):
        self.hw = hw

    def evaluate(self, pairs_considered: float, interactions: float) -> HTISTiming:
        """Time to stream a candidate set through the HTIS.

        Parameters
        ----------
        pairs_considered:
            Candidate pairs the match units examine (tower x plate).
        interactions:
            Pairs within the cutoff (PPIP evaluations).
        """
        if pairs_considered < interactions:
            raise ValueError("cannot have more interactions than candidates")
        match_s = pairs_considered / self.hw.pairs_considered_per_second
        ppip_s = interactions / self.hw.interactions_per_second
        eff = interactions / pairs_considered if pairs_considered else 1.0
        return HTISTiming(
            pairs_considered=pairs_considered,
            interactions=interactions,
            match_efficiency=eff,
            match_limited_s=match_s,
            ppip_limited_s=ppip_s,
        )

    def min_match_efficiency_for_full_utilization(self) -> float:
        """Efficiency below which match units starve the PPIPs.

        PPIPs consume ``n_ppips * 2`` pairs per match cycle (their
        clock is doubled); the match units supply ``match_units``
        candidates per cycle, so utilization needs
        ``eff >= 2 * n_ppips / match_units = 2 / match_units_per_ppip``.
        """
        return 2.0 * self.hw.n_ppips / self.hw.match_units

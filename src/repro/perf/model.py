"""The end-to-end performance model: Figure 5, Tables 1 and 2.

Combines the workload counter with the calibrated x86 and Anton cost
models, and carries the published baselines (Desmond on an InfiniBand
Xeon cluster; the longest published simulations of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import MDParams
from repro.perf.antonmodel import AntonModel
from repro.perf.workload import StepWorkload, workload_from_counts, workload_from_spec
from repro.perf.x86model import TaskProfile, X86Model

__all__ = ["PerformanceModel", "PublishedSimulation", "TABLE1_SIMULATIONS", "DESMOND_DHFR_NS_PER_DAY"]

#: Desmond's DHFR rate on a 512-node 2.66 GHz Xeon E5430 cluster with
#: DDR InfiniBand, two cores per node (Section 5.1).
DESMOND_DHFR_NS_PER_DAY: float = 471.0

#: "the performance realized in such cluster-based simulations is
#: generally limited to speeds on the order of 100 ns/day."
PRACTICAL_CLUSTER_NS_PER_DAY: float = 100.0


@dataclass(frozen=True)
class PublishedSimulation:
    """A row of Table 1: the longest published all-atom simulations."""

    length_us: float
    protein: str
    hardware: str
    software: str
    citation: str


TABLE1_SIMULATIONS: tuple[PublishedSimulation, ...] = (
    PublishedSimulation(1031.0, "BPTI", "Anton", "[native]", "Here"),
    PublishedSimulation(236.0, "gpW", "Anton", "[native]", "Here"),
    PublishedSimulation(10.0, "WW domain", "x86 cluster", "NAMD", "[10]"),
    PublishedSimulation(2.0, "villin HP-35", "x86", "GROMACS", "[6]"),
    PublishedSimulation(2.0, "rhodopsin", "Blue Gene/L", "Blue Matter", "[25]"),
    PublishedSimulation(2.0, "rhodopsin", "Blue Gene/L", "Blue Matter", "[12]"),
    PublishedSimulation(2.0, "beta2AR", "x86 cluster", "Desmond", "[5]"),
)


class PerformanceModel:
    """One object answering every performance question in the paper."""

    def __init__(self):
        self.x86 = X86Model()
        self.anton = AntonModel()

    # -- Table 2 -----------------------------------------------------------

    def x86_profile(self, w: StepWorkload) -> TaskProfile:
        """Single-core x86 per-task times, milliseconds."""
        return self.x86.profile(w)

    def anton_profile(self, w: StepWorkload, n_nodes: int = 512) -> TaskProfile:
        """Anton per-node task times, microseconds."""
        return self.anton.profile(w, n_nodes)

    def dhfr_workload(self, cutoff: float, mesh: int, n_nodes: int = 512) -> StepWorkload:
        """The Table 2 benchmark system at either parameterization."""
        params = MDParams(cutoff=cutoff, mesh=(mesh, mesh, mesh))
        return workload_from_counts(
            n_atoms=23558,
            n_protein_atoms=2592,  # 324 residues x 8 atoms
            side=62.2,
            params=params,
            box_side_per_node=62.2 / round(n_nodes ** (1 / 3)),
        )

    # -- Figure 5 / Table 4 -------------------------------------------------

    def anton_us_per_day(
        self, spec, n_nodes: int = 512, long_range_every: int = 2, waters_only: bool = False
    ) -> float:
        """Predicted simulation rate for a benchmark spec."""
        w = workload_from_spec(spec, n_nodes=n_nodes)
        if waters_only:
            w = StepWorkload(
                n_atoms=w.n_atoms,
                n_protein_atoms=0,
                pairs_within_cutoff=w.pairs_within_cutoff,
                pairs_considered=w.pairs_considered,
                mesh_points=w.mesh_points,
                spreading_points_per_atom=w.spreading_points_per_atom,
                bonded_cost=0.0,
                n_bonded_terms=0,
                correction_pairs=w.n_atoms,  # water exclusions only
                n_constraints=w.n_atoms,
            )
        return self.anton.us_per_day(w, n_nodes=n_nodes, long_range_every=long_range_every)

    def anton_routed_prediction(
        self,
        spec,
        n_nodes: int = 512,
        long_range_every: int = 2,
        config=None,
        congestion=None,
    ) -> dict:
        """Figure 5 prediction with the routed fabric on the critical path.

        Synthesizes one step's traffic on the n-node torus
        (:func:`repro.network.predict.predict_comm`), takes the
        congested per-phase critical paths, and composes them with the
        calibrated compute model.  Returns the communication breakdown
        plus ``us_per_day_routed`` and the counter-model
        ``us_per_day_counter`` (compute only, communication assumed
        hidden) for shape comparison.
        """
        from repro.network.predict import predict_comm

        comm = predict_comm(
            spec, n_nodes, config=config, congestion=congestion,
            long_range_every=long_range_every,
        )
        w = workload_from_spec(spec, n_nodes=n_nodes)
        routed = dict(
            long_range_every=long_range_every,
            short_comm_us=comm["short_comm_us"],
            long_comm_us=comm["long_comm_us"],
        )
        comm["step_us_routed"] = self.anton.step_us(w, n_nodes, **routed)
        comm["us_per_day_routed"] = self.anton.us_per_day(w, n_nodes, **routed)
        comm["us_per_day_counter"] = self.anton.us_per_day(
            w, n_nodes=n_nodes, long_range_every=long_range_every
        )
        return comm

    def anton_routed_scaling(
        self,
        spec,
        node_counts=(512, 1024, 2048, 4096),
        long_range_every: int = 2,
        config=None,
        congestion=None,
    ) -> list[dict]:
        """:meth:`anton_routed_prediction` swept over node counts."""
        return [
            self.anton_routed_prediction(
                spec, n, long_range_every=long_range_every,
                config=config, congestion=congestion,
            )
            for n in node_counts
        ]

    # -- Table 1 -------------------------------------------------------------

    def days_to_simulate(self, length_us: float, rate_us_per_day: float) -> float:
        """Wall-clock days to reach a trajectory length at a given rate."""
        return length_us / rate_us_per_day

    def speedup_vs_desmond(self, anton_us_per_day: float) -> float:
        """Headline comparison of Section 5.1."""
        return anton_us_per_day * 1000.0 / DESMOND_DHFR_NS_PER_DAY

    def speedup_vs_practical_cluster(self, anton_us_per_day: float) -> float:
        return anton_us_per_day * 1000.0 / PRACTICAL_CLUSTER_NS_PER_DAY

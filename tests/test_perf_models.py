"""Unit tests for the workload counter and performance models."""

import pytest

from repro.core import MDParams
from repro.perf import (
    DESMOND_DHFR_NS_PER_DAY,
    TABLE1_SIMULATIONS,
    PerformanceModel,
    workload_from_spec,
    workload_from_system,
)
from repro.systems import TABLE4_SYSTEMS, benchmark_by_name


@pytest.fixture(scope="module")
def pm():
    return PerformanceModel()


class TestWorkload:
    def test_analytic_pair_count_matches_built_system(self):
        # The analytic density estimate must agree with real counting.
        spec = benchmark_by_name("DHFR")
        sys_small = spec.build(scale=0.02, seed=0)
        params = MDParams(cutoff=6.0, mesh=(16, 16, 16))
        w = workload_from_system(sys_small, params, box_side_per_node=sys_small.box.lengths[0] / 2)
        import math

        rho = sys_small.n_atoms / sys_small.box.volume
        analytic = sys_small.n_atoms * (4 / 3) * math.pi * 6.0**3 * rho / 2
        assert w.pairs_within_cutoff == pytest.approx(analytic, rel=0.15)

    def test_per_node_split(self, pm):
        w = pm.dhfr_workload(13.0, 32)
        pn = w.per_node(512)
        assert pn.pairs_within_cutoff == pytest.approx(w.pairs_within_cutoff / 512)
        assert pn.n_atoms == w.n_atoms // 512

    def test_match_efficiency_in_range(self, pm):
        w = pm.dhfr_workload(13.0, 32)
        assert 0.05 < w.match_efficiency < 0.9

    def test_spec_workload(self):
        w = workload_from_spec(benchmark_by_name("T7Lig"))
        assert w.n_atoms == 116650
        assert w.pairs_within_cutoff > 1e7


class TestX86Model:
    def test_anchor_column_reproduced(self, pm):
        # Table 2, x86, small cutoff: the calibration must round-trip.
        w = pm.dhfr_workload(9.0, 64)
        p = pm.x86_profile(w)
        assert p.range_limited == pytest.approx(56.6, rel=0.02)
        assert p.fft == pytest.approx(12.3, rel=0.02)
        assert p.total == pytest.approx(88.5, rel=0.02)

    def test_large_cutoff_prediction(self, pm):
        # The other column is a prediction: paper 164.4 ms range-limited,
        # 1.4 ms FFT, 184.5 ms total.
        w = pm.dhfr_workload(13.0, 32)
        p = pm.x86_profile(w)
        assert p.range_limited == pytest.approx(164.4, rel=0.08)
        assert p.fft == pytest.approx(1.4, rel=0.15)
        assert p.total == pytest.approx(184.5, rel=0.08)

    def test_x86_slows_down_with_anton_parameters(self, pm):
        # "On the x86, this parameter change leads to an overall
        # slowdown of nearly twofold."
        small = pm.x86_profile(pm.dhfr_workload(9.0, 64)).total
        large = pm.x86_profile(pm.dhfr_workload(13.0, 32)).total
        assert 1.8 < large / small < 2.4


class TestAntonModel:
    def test_anchor_column_reproduced(self, pm):
        w = pm.dhfr_workload(13.0, 32)
        p = pm.anton_profile(w)
        assert p.range_limited == pytest.approx(1.9, rel=0.05)
        assert p.fft == pytest.approx(8.9, rel=0.05)
        assert p.mesh_interpolation == pytest.approx(2.0, rel=0.05)
        assert pm.anton.total_step_us_single_rate(w) == pytest.approx(15.4, rel=0.05)

    def test_small_cutoff_prediction(self, pm):
        # Predictions: paper 1.4 us range-limited, 39.2 us total.
        w = pm.dhfr_workload(9.0, 64)
        p = pm.anton_profile(w)
        assert p.range_limited == pytest.approx(1.4, rel=0.15)
        assert pm.anton.total_step_us_single_rate(w) == pytest.approx(39.2, rel=0.10)

    def test_anton_speeds_up_with_large_cutoff(self, pm):
        # "whereas on Anton, it results in a speedup of more than twofold."
        small = pm.anton.total_step_us_single_rate(pm.dhfr_workload(9.0, 64))
        large = pm.anton.total_step_us_single_rate(pm.dhfr_workload(13.0, 32))
        assert small / large > 2.0

    def test_dhfr_rate_anchor(self, pm):
        rate = pm.anton_us_per_day(benchmark_by_name("DHFR"))
        assert rate == pytest.approx(16.4, rel=0.03)


class TestFigure5Shape:
    def test_rate_decreases_with_system_size(self, pm):
        rates = [pm.anton_us_per_day(s) for s in TABLE4_SYSTEMS]
        sizes = [s.n_atoms for s in TABLE4_SYSTEMS]
        assert sizes == sorted(sizes)
        # Monotone within same-mesh groups; overall strongly decreasing.
        assert rates[0] > rates[-1] * 2

    def test_plateau_below_25k_atoms(self, pm):
        # gpW (9.9k) is not proportionally faster than DHFR (23.6k).
        gpw = pm.anton_us_per_day(benchmark_by_name("gpW"))
        dhfr = pm.anton_us_per_day(benchmark_by_name("DHFR"))
        atom_ratio = 23558 / 9865
        assert gpw / dhfr < 0.6 * atom_ratio

    def test_water_faster_than_protein(self, pm):
        # "Systems containing only water run 3-24% faster."
        for spec in TABLE4_SYSTEMS[:3]:
            prot = pm.anton_us_per_day(spec)
            water = pm.anton_us_per_day(spec, waters_only=True)
            assert 1.0 < water / prot < 1.30

    def test_128_node_partition_beats_quarter_rate(self, pm):
        # "each of which achieves 7.5 us/day on the DHFR system — well
        # over 25% of the performance ... across all 512 nodes."
        dhfr = benchmark_by_name("DHFR")
        r512 = pm.anton_us_per_day(dhfr, n_nodes=512)
        r128 = pm.anton_us_per_day(dhfr, n_nodes=128)
        assert r128 > 0.25 * r512
        assert r128 < r512


class TestHeadlineComparisons:
    def test_two_orders_of_magnitude_vs_practical_clusters(self, pm):
        rate = pm.anton_us_per_day(benchmark_by_name("DHFR"))
        assert pm.speedup_vs_practical_cluster(rate) > 100

    def test_vs_desmond(self, pm):
        # 16.4 us/day vs 471 ns/day ~ 35x.
        rate = pm.anton_us_per_day(benchmark_by_name("DHFR"))
        assert 25 < pm.speedup_vs_desmond(rate) < 45

    def test_table1_contents(self):
        assert TABLE1_SIMULATIONS[0].length_us == 1031.0
        assert TABLE1_SIMULATIONS[0].protein == "BPTI"
        longest_non_anton = max(
            s.length_us for s in TABLE1_SIMULATIONS if s.hardware != "Anton"
        )
        assert TABLE1_SIMULATIONS[0].length_us / longest_non_anton > 100

    def test_days_to_simulate(self, pm):
        # The millisecond BPTI run at ~10-18 us/day is months, not years;
        # the same on a 100 ns/day cluster is ~28 years.
        days_anton = pm.days_to_simulate(1031.0, 9.8)
        days_cluster = pm.days_to_simulate(1031.0, 0.1)
        assert 60 < days_anton < 150
        assert days_cluster / 365 > 25
        assert DESMOND_DHFR_NS_PER_DAY == 471.0


class TestRoutedPrediction:
    """The routed fabric on the critical path of the Figure 5 model."""

    def test_step_composition_without_comm_is_step_us(self, pm):
        """Without communication the step is the compute composition:
        overhead + short chain + long chain / long_range_every."""
        from repro.perf.antonmodel import _STEP_OVERHEAD_US

        w = pm.dhfr_workload(cutoff=13.0, mesh=64)
        p = pm.anton.profile(w, 512)
        compute = _STEP_OVERHEAD_US + pm.anton.short_us(p) + pm.anton.long_range_us(p) / 2
        assert pm.anton.step_us(w, 512, short_comm_us=0.0, long_comm_us=0.0) == compute
        assert pm.anton.step_us(w, 512) == compute

    def test_comm_only_binds_when_it_exceeds_compute(self, pm):
        w = pm.dhfr_workload(cutoff=13.0, mesh=64)
        base = pm.anton.step_us(w, 512)
        hidden = pm.anton.step_us(w, 512, short_comm_us=0.01, long_comm_us=0.01)
        bound = pm.anton.step_us(w, 512, short_comm_us=1e4, long_comm_us=1e4)
        assert hidden == pytest.approx(base)
        assert bound > base

    def test_dhfr_anchor_survives_routing(self, pm):
        """At full link bandwidth the synthesized communication hides
        under compute, so the routed rate keeps the 16.4 us/day anchor."""
        out = pm.anton_routed_prediction(benchmark_by_name("DHFR"), n_nodes=512)
        assert out["us_per_day_routed"] == pytest.approx(16.4, rel=0.03)
        assert out["us_per_day_routed"] == pytest.approx(out["us_per_day_counter"])

    def test_congestion_slows_the_routed_rate_monotonically(self, pm):
        from repro.network import CongestionModel

        spec = benchmark_by_name("DHFR")
        rates = [
            pm.anton_routed_prediction(
                spec, n_nodes=512,
                congestion=CongestionModel(bandwidth_scale=s),
            )["us_per_day_routed"]
            for s in (1.0, 0.05, 0.01)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_synthesized_traffic_conserves(self, pm):
        out = pm.anton_routed_prediction(benchmark_by_name("DHFR"), n_nodes=512)
        lhs = (
            out["link_bytes_total"]
            + out["multicast"]["saved_link_bytes"]
            + out["compression_saved_link_bytes"]
        )
        assert lhs == out["counter_hop_bytes"]
        assert out["multicast"]["saved_link_bytes"] > 0

    def test_scaling_sweep_shape(self, pm):
        rows = pm.anton_routed_scaling(
            benchmark_by_name("DHFR"), node_counts=(512, 1024)
        )
        assert [r["n_nodes"] for r in rows] == [512, 1024]
        for r in rows:
            assert r["step_us_routed"] > 0
            assert r["max_link_bytes"] > 0
        # Per-node traffic shrinks as boxes get smaller.
        assert rows[1]["max_link_bytes"] < rows[0]["max_link_bytes"]

"""Unit tests for the per-component timing counter layer."""

import time

import numpy as np

from repro.core import FixedPointConfig, ForceCalculator, MDParams
from repro.perf import Timers
from repro.systems import build_water_box

PARAMS = MDParams(cutoff=4.5, skin=1.0, mesh=(16, 16, 16))


class TestTimers:
    def test_time_accumulates(self):
        t = Timers()
        with t.time("work"):
            time.sleep(0.002)
        with t.time("work"):
            time.sleep(0.002)
        assert t.elapsed["work"] >= 0.004

    def test_counts(self):
        t = Timers()
        t.count("events")
        t.count("events", 3)
        assert t.counts["events"] == 4

    def test_reset(self):
        t = Timers()
        t.add("a", 1.0)
        t.count("n")
        with t.time("x"):
            pass
        t.reset()
        assert t.elapsed == {} and t.counts == {} and t.paths == {}

    def test_nested_time_records_paths_and_flat_totals(self):
        t = Timers()
        with t.time("outer"):
            with t.time("inner"):
                time.sleep(0.001)
            with t.time("inner"):
                pass
        with t.time("inner"):  # top-level use of the same name
            pass
        assert set(t.paths) == {"outer", "outer/inner", "inner"}
        # Flat totals merge every use of the name, nested or not.
        assert t.elapsed["inner"] >= t.paths["outer/inner"]
        assert t.paths["outer"] >= t.paths["outer/inner"]

    def test_tree_folds_paths(self):
        t = Timers()
        with t.time("step"):
            with t.time("force"):
                with t.time("mesh"):
                    pass
            with t.time("drift"):
                pass
        tree = t.tree()
        assert set(tree) == {"step"}
        step = tree["step"]
        assert set(step["children"]) == {"force", "drift"}
        assert "mesh" in step["children"]["force"]["children"]
        children_sum = sum(c["seconds"] for c in step["children"].values())
        assert step["seconds"] >= children_sum

    def test_tree_with_root_returns_subtree(self):
        t = Timers()
        with t.time("step"):
            with t.time("force"):
                pass
        with t.time("other"):
            pass
        sub = t.tree("step")
        assert set(sub) == {"force"}

    def test_exception_inside_block_still_charges(self):
        t = Timers()
        try:
            with t.time("a"):
                with t.time("b"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "a/b" in t.paths and "a" in t.paths
        assert t._stack == []  # stack unwound cleanly

    def test_summary_lines_sorted_by_time(self):
        t = Timers()
        t.add("slow", 2.0)
        t.add("fast", 0.1)
        t.count("events", 5)
        lines = t.summary_lines()
        assert lines[0].startswith("slow")
        assert any("events" in ln for ln in lines)


class TestForceReportTimings:
    def test_compute_populates_component_timings(self):
        system = build_water_box(n_molecules=32, seed=41)
        calc = ForceCalculator(system, PARAMS)
        calc.compute(system.positions)
        for key in ("pair_list", "range_limited", "correction", "kspace"):
            assert calc.timers.elapsed[key] >= 0.0

    def test_compute_fixed_populates_component_timings(self):
        system = build_water_box(n_molecules=32, seed=42)
        calc = ForceCalculator(system, PARAMS)
        codec = FixedPointConfig().force_codec()
        calc.compute_fixed(system.positions, codec)
        assert "range_limited" in calc.timers.elapsed
        assert "kspace" in calc.timers.elapsed

    def test_timers_do_not_perturb_forces(self):
        system = build_water_box(n_molecules=32, seed=43)
        calc_a = ForceCalculator(system, PARAMS)
        calc_b = ForceCalculator(system, PARAMS)
        f_a = calc_a.compute(system.positions).forces
        calc_b.compute(system.positions)
        f_b = calc_b.compute(system.positions).forces  # second eval reuses list
        np.testing.assert_array_equal(f_a, f_b)

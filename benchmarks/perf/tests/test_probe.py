"""Normalisation arithmetic on synthetic timings."""

import pytest

import common
import probe


def test_host_factor_is_median_probe_over_reference():
    ref = probe.PROBE_REF_S
    assert probe.host_factor([ref]) == pytest.approx(1.0)
    assert probe.host_factor([2 * ref, 2 * ref, 2 * ref]) == pytest.approx(2.0)
    # One stalled probe (20x) must not move the estimate.
    assert probe.host_factor([ref] * 9 + [20 * ref]) == pytest.approx(1.0)


def test_normalise_expresses_time_on_the_reference_host():
    ref = probe.PROBE_REF_S
    # A host twice as slow: 10 raw seconds are 5 reference seconds.
    assert probe.normalise(10.0, [2 * ref] * 5) == pytest.approx(5.0)
    # Same work on a slow and a fast host normalises to the same number.
    slow = probe.normalise(12.0, [1.2 * ref] * 7)
    fast = probe.normalise(8.0, [0.8 * ref] * 7)
    assert slow == pytest.approx(fast) == pytest.approx(10.0)


def test_normalise_rejects_missing_or_bad_probes():
    with pytest.raises(ValueError):
        probe.normalise(1.0, [])
    with pytest.raises(ValueError):
        probe.normalise(1.0, [0.003, 0.0])


def test_probe_cv_is_robust_and_scale_free():
    steady = [0.003 + 1e-5 * (i % 5) for i in range(40)]
    assert probe.probe_cv(steady) < 0.01
    assert probe.probe_cv(steady + [0.07]) < 0.01  # one stall changes nothing
    wobbly = [0.003 * (1.0 + 0.3 * ((i % 4) - 1.5)) for i in range(40)]
    assert probe.probe_cv(wobbly) > probe.NOISY_CV
    assert probe.probe_cv([2 * p for p in wobbly]) == pytest.approx(probe.probe_cv(wobbly))
    assert probe.probe_cv([0.003, 0.004]) == 0.0  # too few samples to judge


def test_window_uses_one_factor_for_total_and_median():
    ref = probe.PROBE_REF_S
    w = common.Window(raw=[0.2, 0.2, 1.0, 0.2], probes=[2 * ref] * 4)
    assert w.raw_s == pytest.approx(1.6)
    assert w.norm_s == pytest.approx(0.8)
    assert w.raw_cycle_ms_p50 == pytest.approx(200.0)
    assert w.cycle_ms_p50 == pytest.approx(100.0)


def test_phases_normalise_each_phase_by_its_own_probes(monkeypatch):
    ref = probe.PROBE_REF_S
    speeds = iter([1.0] * 10 + [2.0] * 5)  # host slows down after phase one

    monkeypatch.setattr(common.hostprobe, "probe", lambda: ref * next(speeds))
    phases = common.Phases()
    phases.phases["fast"] = (3.0, [ref] * 10)
    phases.phases["slow"] = (4.0, [2 * ref] * 10)
    assert phases.raw_s == pytest.approx(7.0)
    assert phases.norm_s == pytest.approx(3.0 + 2.0)
    with phases.phase("timed"):
        pass
    raw, probes = phases.phases["timed"]
    assert raw >= 0.0 and len(probes) == 10

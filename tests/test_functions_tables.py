"""Unit tests for tiered piecewise-cubic tables and kernel table sets."""

import hashlib

import numpy as np
import pytest

from repro.ewald import choose_sigma
from repro.forcefield.nonbonded import build_kernel_tables
from repro.functions.evaluator import R_FLOOR
from repro.functions import (
    ANTON_ELECTROSTATIC_TIERS,
    KernelTableSet,
    Tier,
    TieredTable,
    uniform_tiers,
)


class TestTier:
    def test_paper_configuration_totals_240_entries(self):
        assert sum(t.segments for t in ANTON_ELECTROSTATIC_TIERS) == 240
        assert ANTON_ELECTROSTATIC_TIERS[0].segments == 64
        assert ANTON_ELECTROSTATIC_TIERS[1].end == pytest.approx(1 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tier(0.5, 0.5, 4)
        with pytest.raises(ValueError):
            Tier(0.0, 0.5, 0)
        with pytest.raises(ValueError):
            Tier(0.0, 1.5, 4)

    def test_noncontiguous_tiers_rejected(self):
        with pytest.raises(ValueError):
            TieredTable.build(np.exp, tiers=(Tier(0.0, 0.3, 4), Tier(0.4, 1.0, 4)))


class TestTieredTable:
    def test_smooth_function_accuracy(self):
        table = TieredTable.build(lambda u: np.exp(-3 * u), tiers=uniform_tiers(16))
        assert table.max_abs_error(lambda u: np.exp(-3 * u)) < 1e-6

    def test_segment_index(self):
        table = TieredTable.build(np.cos, tiers=uniform_tiers(8))
        idx = table.segment_index(np.array([0.0, 0.124, 0.126, 0.99]))
        np.testing.assert_array_equal(idx, [0, 0, 1, 7])

    def test_out_of_domain_clamps(self):
        table = TieredTable.build(np.cos, tiers=uniform_tiers(8))
        assert table.segment_index(-0.5) == 0
        assert table.segment_index(1.5) == 7

    def test_tiered_beats_uniform_for_singular_kernel(self):
        # A 1/u-like kernel: tiers concentrated near 0 should beat a
        # uniform table of the same total entry count.
        def f(u):
            return 1.0 / (u + 0.004)

        tiered = TieredTable.build(
            f,
            tiers=(Tier(0.0, 1 / 128, 64), Tier(1 / 128, 1 / 32, 96), Tier(1 / 32, 0.25, 56), Tier(0.25, 1.0, 24)),
        )
        uniform = TieredTable.build(f, tiers=uniform_tiers(240))
        assert tiered.max_abs_error(f) < 0.1 * uniform.max_abs_error(f)

    def test_continuity_adjustment(self):
        f = lambda u: np.exp(2 * u)  # noqa: E731
        table = TieredTable.build(f, tiers=uniform_tiers(10), mantissa_bits=40)
        # With wide mantissas, residual jumps come only from the
        # block-float rounding of the adjusted coefficients.
        assert np.max(table.continuity_jumps()) < 1e-8

    def test_continuity_off_shows_jumps_field(self):
        f = lambda u: 1.0 / (u + 0.01)  # noqa: E731
        on = TieredTable.build(f, tiers=uniform_tiers(6), enforce_continuity=True, mantissa_bits=40)
        off = TieredTable.build(f, tiers=uniform_tiers(6), enforce_continuity=False, mantissa_bits=40)
        assert np.max(on.continuity_jumps()) <= np.max(off.continuity_jumps())

    def test_quantization_error_shrinks_with_mantissa_bits(self):
        f = np.exp
        errs = []
        for bits in (8, 14, 20, 26):
            t = TieredTable.build(f, tiers=uniform_tiers(8), mantissa_bits=bits)
            us = np.linspace(0, 0.999, 500)
            errs.append(np.max(np.abs(t.evaluate(us) - t.evaluate_raw(us))))
        assert errs[-1] < errs[0] / 1000

    def test_hardware_eval_close_to_float_eval(self):
        table = TieredTable.build(np.exp, tiers=uniform_tiers(16))
        us = np.linspace(0, 0.999, 300)
        hw = table.evaluate_hardware(us, t_bits=22, stage_bits=26)
        assert np.max(np.abs(hw - table.evaluate(us))) < 1e-5

    def test_hardware_eval_degrades_with_narrow_datapath(self):
        table = TieredTable.build(np.exp, tiers=uniform_tiers(16))
        us = np.linspace(0, 0.999, 300)
        err_narrow = np.max(np.abs(table.evaluate_hardware(us, t_bits=8, stage_bits=10) - np.exp(us)))
        err_wide = np.max(np.abs(table.evaluate_hardware(us, t_bits=22, stage_bits=26) - np.exp(us)))
        assert err_wide < err_narrow / 10

    def test_max_abs_error_is_the_max_over_segments(self):
        f = lambda u: 1.0 / (u + 0.01)  # noqa: E731
        table = TieredTable.build(f, tiers=ANTON_ELECTROSTATIC_TIERS)
        per_segment = [
            np.max(np.abs(table.evaluate(us) - f(us)))
            for us in (s0 + w * np.linspace(0, 1, 64) for s0, w in zip(table.seg_starts, table.seg_widths))
        ]
        assert table.max_abs_error(f) == max(per_segment)

    def test_domain_property(self):
        table = TieredTable.build(np.cos, tiers=(Tier(0.25, 0.75, 4),))
        assert table.domain == (0.25, 0.75)
        assert table.n_segments == 4


class TestKernelTableSet:
    def test_tabulated_coulomb_kernel(self):
        ts = KernelTableSet(cutoff=9.0)
        ts.add("einv", lambda r2: 1.0 / np.sqrt(r2))
        r = np.linspace(R_FLOOR + 0.2, 8.9, 200)  # 0.2 A inside the table floor
        rel = np.abs(ts.evaluate("einv", r**2) - 1.0 / r) * r
        assert np.max(rel) < 1e-4

    def test_r_floor_validation(self):
        with pytest.raises(ValueError):
            KernelTableSet(cutoff=0.5)

    def test_names_and_contains(self):
        ts = KernelTableSet(cutoff=9.0)
        ts.add("a", lambda r2: r2)
        assert "a" in ts.tables
        assert "b" not in ts.tables
        assert sorted(ts.tables) == ["a"]

    def test_r_at_cutoff_does_not_error(self):
        ts = KernelTableSet(cutoff=9.0)
        ts.add("a", lambda r2: r2)
        val = ts.evaluate("a", 81.0)
        assert np.isfinite(val)


class TestSharedIndexEvaluation:
    def test_locate_evaluate_at_matches_evaluate(self):
        table = TieredTable.build(lambda u: np.exp(-3 * u), tiers=uniform_tiers(16))
        u = np.random.default_rng(3).uniform(0.0, 1.0, 500)
        idx, t = table.locate(u)
        np.testing.assert_array_equal(table.evaluate_at(idx, t), table.evaluate(u))

    def test_segmentation_key_distinguishes_layouts(self):
        a = TieredTable.build(np.cos, tiers=uniform_tiers(8))
        b = TieredTable.build(np.sin, tiers=uniform_tiers(8))
        c = TieredTable.build(np.cos, tiers=uniform_tiers(16))
        assert a.segmentation_key() == b.segmentation_key()
        assert a.segmentation_key() != c.segmentation_key()

    def test_shared_evaluator_bitwise(self):
        ts = KernelTableSet(cutoff=9.0)
        ts.add("inv", lambda r2: 1.0 / r2)
        ts.add("inv2", lambda r2: 1.0 / r2**2, tiers=uniform_tiers(32))
        r2 = np.random.default_rng(4).uniform(1.1, 80.9, 300)
        ev = ts.shared_evaluator(ts.normalize(r2))
        for name in ("inv", "inv2"):
            np.testing.assert_array_equal(ev(name), ts.evaluate(name, r2))


def _table_digest(h, table):
    for arr in (table.seg_starts, table.seg_widths, table.coeffs_raw, table.coeffs_quant, table.fit_errors):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    for mantissas, exponent in zip(table.mantissas, table.exponents):
        h.update(np.ascontiguousarray(mantissas, dtype=np.int64).tobytes())
        h.update(np.int64(exponent).tobytes())


class TestGoldenTables:
    """Every bit of the PPIP tables, pinned.

    The sha256 covers the segment layout, the raw and quantized
    coefficients, the fit errors and every block's mantissas and
    exponent.  A change of any of them moves every trajectory.
    """

    @pytest.mark.parametrize(
        "cutoff, digest",
        [
            (9.0, "99ec781f770aac838de0e4f57e50ce1e49fcb27e4920119cdc111554d6ef6606"),
            (4.0, "bec84c4bdaf086a0fef0a61eef46b8d3ca063e3c9b64f954b3be4a2dd1ed408c"),
            (10.4, "b4a90d2e496999ab7359dbee94c1818bc437f1e0b488a44f8ab089d074e005b1"),
        ],
    )
    def test_kernel_table_set(self, cutoff, digest):
        tables = build_kernel_tables(cutoff, choose_sigma(cutoff, 1e-5))
        h = hashlib.sha256()
        for name in sorted(tables.tables):
            _table_digest(h, tables.tables[name])
        assert sorted(tables.tables) == ["elec_e", "elec_f", "lj12_e", "lj12_f", "lj6_e", "lj6_f"]
        assert h.hexdigest() == digest

    def test_uniform_exp_table(self):
        h = hashlib.sha256()
        _table_digest(h, TieredTable.build(np.exp, uniform_tiers(16), mantissa_bits=40))
        assert h.hexdigest() == "176afee00958e3e8828650787f823d2242317a01d00aeb565fad1cd729b86913"

"""Unit tests for the util package (constants, RNG discipline)."""

import numpy as np
import pytest

from repro.util import (
    ACCEL_UNIT,
    BOLTZMANN,
    COULOMB,
    DEFAULT_SEED,
    WATER_MOLECULE_DENSITY,
    make_rng,
)


class TestConstants:
    def test_coulomb_constant(self):
        # ke in kcal*A/(mol*e^2): e^2/(4 pi eps0) in those units.
        assert COULOMB == pytest.approx(332.0637, abs=0.01)

    def test_boltzmann(self):
        # kT at 300 K is the familiar 0.596 kcal/mol.
        assert BOLTZMANN * 300.0 == pytest.approx(0.5962, abs=1e-3)

    def test_accel_unit_dimensional_check(self):
        # 1 kcal/mol/A on 1 amu: 4184 J/mol / 1e-10 m / (1e-3 kg/mol)
        # = 4.184e16 m/s^2 = 4.184e16 * 1e10 A / (1e15 fs)^2.
        assert ACCEL_UNIT == pytest.approx(4.184e16 * 1e10 / (1e15) ** 2, rel=1e-12)

    def test_water_density(self):
        # ~33.4 molecules/nm^3 at ambient conditions.
        assert WATER_MOLECULE_DENSITY * 1000 == pytest.approx(33.4, abs=0.5)


class TestRNG:
    def test_default_seed_reproducible(self):
        a = make_rng().normal(size=5)
        b = make_rng().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_explicit_seed(self):
        a = make_rng(123).normal(size=5)
        b = make_rng(123).normal(size=5)
        c = make_rng(124).normal(size=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_none_uses_default_seed(self):
        np.testing.assert_array_equal(
            make_rng(None).normal(size=3), make_rng(DEFAULT_SEED).normal(size=3)
        )

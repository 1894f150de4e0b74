"""Table 4: accuracy measurements — force errors and energy drift.

For each benchmark system (at reduced scale: pure Python cannot
evaluate 10^5-atom systems, and the error metrics depend on parameter
accuracy, not absolute size):

* **total force error** — the Anton path (tiered tables, fixed-point
  accumulation, production cutoff/mesh) against a conservative
  double-precision reference (direct Ewald sum, near-half-box LJ
  cutoff), as a fraction of the rms force.  Paper band: 58-81 x 10^-6.
* **numerical force error** — the same comparison at *identical*
  parameters, isolating table/fixed-point error.  Paper band:
  8-12 x 10^-6, "nearly an order of magnitude smaller".
* **energy drift** — unthermostatted NVE, kcal/mol/DoF/us.
* **modeled performance** — us/day from the calibrated Anton model.
"""

import numpy as np
import pytest

from repro.analysis import analytic_forces, drift_from_energy_log, energy_drift, force_error
from repro.core import FixedPointConfig, ForceCalculator, MDParams, Simulation, minimize_energy
from repro.ewald import direct_ewald, plain_coulomb_force_kernel
from repro.forcefield import all_bonded_forces, lj_energy_prefactor, scatter_forces
from repro.geometry import brute_force_pairs
from repro.perf import PerformanceModel
from repro.systems import benchmark_by_name


def conservative_reference_forces(system):
    """Double-precision, conservative-parameter force oracle."""
    pos = system.positions
    box = system.box
    q = system.charges
    n = system.n_atoms
    f = np.zeros((n, 3))

    # Electrostatics: exact Ewald, then remove excluded / rescale 1-4.
    ref = direct_ewald(pos, q, box, sigma=2.0, real_images=1, kmax=10)
    f += ref.forces
    ex = system.exclusions
    for pairs_arr, scale in ((ex.excluded, 0.0), (ex.pair14, ex.coul_scale14)):
        if len(pairs_arr):
            i, j = pairs_arr[:, 0], pairs_arr[:, 1]
            dx = box.minimum_image(pos[i] - pos[j])
            r2 = np.sum(dx * dx, axis=1)
            pref = (scale - 1.0) * q[i] * q[j] * plain_coulomb_force_kernel(r2)
            np.add.at(f, i, pref[:, None] * dx)
            np.add.at(f, j, -pref[:, None] * dx)

    # LJ at a near-half-box cutoff, plain truncation.
    rc = box.max_cutoff() * 0.98
    pairs = brute_force_pairs(pos, box, rc)
    keep = ~ex.is_excluded(pairs.i, pairs.j)
    i, j, dx, r2 = pairs.i[keep], pairs.j[keep], pairs.dx[keep], pairs.r2[keep]
    a, b = system.lj.pair_coefficients(system.type_ids[i], system.type_ids[j])
    _e, pref = lj_energy_prefactor(r2, a, b)
    np.add.at(f, i, pref[:, None] * dx)
    np.add.at(f, j, -pref[:, None] * dx)
    # Scaled 1-4 LJ.
    if len(ex.pair14):
        i, j = ex.pair14[:, 0], ex.pair14[:, 1]
        dx = box.minimum_image(pos[i] - pos[j])
        r2 = np.sum(dx * dx, axis=1)
        a, b = system.lj.pair_coefficients(system.type_ids[i], system.type_ids[j])
        _e, pref = lj_energy_prefactor(r2, a, b)
        pref = ex.lj_scale14 * pref
        np.add.at(f, i, pref[:, None] * dx)
        np.add.at(f, j, -pref[:, None] * dx)

    f += scatter_forces(n, all_bonded_forces(pos, box, system.topology))
    system.spread_virtual_site_forces(f)
    return f


def prepare(spec_name: str, scale: float, cutoff: float, mesh: int, seed: int = 0):
    spec = benchmark_by_name(spec_name)
    system = spec.build(scale=scale, seed=seed)
    params = MDParams(cutoff=cutoff, mesh=(mesh,) * 3)
    minimize_energy(system, params, max_steps=80)
    return system, params


def measure_force_errors(system, params):
    cfg = FixedPointConfig()
    anton_calc = ForceCalculator(system, params)
    _codes, report = anton_calc.compute_fixed(system.positions, cfg.force_codec())
    anton_forces = report.forces

    # The float64 analytic oracle at the same parameters (plain-cutoff LJ,
    # as the tables are): the difference is the tables' and fixed point's.
    same_params_float = analytic_forces(anton_calc, system.positions)

    reference = conservative_reference_forces(system)
    total = force_error(anton_forces, reference)
    numerical = force_error(anton_forces, same_params_float)
    return total, numerical


@pytest.mark.parametrize("name,scale", [("gpW", 0.10), ("DHFR", 0.05)])
def test_table4_force_errors(benchmark, record_table, name, scale):
    system, params = prepare(name, scale, cutoff=9.0, mesh=32)
    total, numerical = benchmark.pedantic(
        measure_force_errors, args=(system, params), rounds=1, iterations=1
    )
    spec = benchmark_by_name(name)
    record_table(
        f"table4_force_errors_{name}",
        [
            f"Table 4 force errors, {name} at scale {scale} ({system.n_atoms} atoms)",
            f"total force error:     {total.fraction:.2e}  (paper {spec.paper_total_force_error:.1e})",
            f"numerical force error: {numerical.fraction:.2e}  (paper {spec.paper_numerical_force_error:.1e})",
        ],
    )
    # Bands: total well under the 1e-3 acceptability threshold the
    # paper cites, in the 1e-5..1e-3 decade around Table 4's values.
    assert total.fraction < 1e-3
    # Numerical error materially smaller than total (paper: ~10x).
    assert numerical.fraction < 0.5 * total.fraction
    assert numerical.fraction < 1e-4
    # ... but not zero: the oracle is not the tables compared with themselves.
    assert numerical.fraction > 1e-6


def test_table4_energy_drift(benchmark, record_table, tmp_path):
    spec = benchmark_by_name("gpW")
    system = spec.build(scale=0.06, seed=1)
    params = MDParams(cutoff=8.0, mesh=(32, 32, 32))
    minimize_energy(system, params, max_steps=80)
    system.initialize_velocities(300.0, seed=2)
    # Short thermalization, then NVE measurement (footnote 4: drift is
    # measured unthermostatted).
    from repro.core import BerendsenThermostat

    eq = Simulation(system, params, dt=2.5, mode="fixed", thermostat=BerendsenThermostat(300.0, tau=200.0))
    eq.run(800)
    system.positions = eq.positions
    system.velocities = eq.velocities

    def run_nve():
        # Stream the energy log to disk and fit the drift offline from
        # the file — the paper's analyze-a-stored-run workflow.
        from repro.io import EnergyLogWriter

        log_path = tmp_path / "nve.jsonl"
        sim = Simulation(system.copy(), params, dt=2.5, mode="fixed")
        with EnergyLogWriter(log_path) as writer:
            recs = sim.run(3200, record_every=80, energy_writer=writer)
        half = len(recs) // 2
        return (
            drift_from_energy_log(log_path, system.n_dof),
            energy_drift(recs[:half], system.n_dof),
            energy_drift(recs[half:], system.n_dof),
        )

    drift, first_half, second_half = benchmark.pedantic(run_nve, rounds=1, iterations=1)
    record_table(
        "table4_energy_drift",
        [
            f"Energy drift, gpW-like system at reduced scale ({system.n_atoms} atoms, 8 ps NVE)",
            f"drift: {drift.drift_per_dof_per_us:+.2f} kcal/mol/DoF/us  (paper gpW: 0.035)",
            f"half-window fits: {first_half.drift_per_dof_per_us:+.1f} / "
            f"{second_half.drift_per_dof_per_us:+.1f} (sign instability => fluctuation, not drift)",
            f"rms fluctuation: {drift.rms_fluctuation:.3f} kcal/mol "
            f"({drift.relative_fluctuation:.1e} of total energy)",
            "note: 8 ps of sampling resolves drift only to O(10) kcal/mol/DoF/us;",
            "the paper's 0.035 needs its multi-us windows. The assertion is the bound.",
        ],
    )
    # With ~8 ps of data the fit resolves drift only to O(10)
    # kcal/mol/DoF/us; assert the conservative bound plus tight
    # fluctuation control (the quantities a short run can measure).
    assert abs(drift.drift_per_dof_per_us) < 60.0
    assert drift.relative_fluctuation < 1e-3
    # No resolvable secular trend: the two half-window fits do not both
    # exceed the full-window bound with the same sign.
    same_sign = first_half.drift_per_dof_per_us * second_half.drift_per_dof_per_us > 0
    both_large = (
        abs(first_half.drift_per_dof_per_us) > 60.0
        and abs(second_half.drift_per_dof_per_us) > 60.0
    )
    assert not (same_sign and both_large)


def test_table4_modeled_performance(benchmark, record_table):
    pm = PerformanceModel()
    names = ("gpW", "DHFR", "aSFP", "NADHOx", "FtsZ", "T7Lig")
    rates = benchmark.pedantic(
        lambda: {n: pm.anton_us_per_day(benchmark_by_name(n)) for n in names},
        rounds=1,
        iterations=1,
    )
    lines = ["Table 4 performance (modeled us/day vs paper)"]
    for name in names:
        spec = benchmark_by_name(name)
        rate = rates[name]
        lines.append(f"{name:8s} {rate:5.1f}  (paper {spec.paper_us_per_day})")
        assert rate == pytest.approx(spec.paper_us_per_day, rel=0.40)
    record_table("table4_performance", lines)

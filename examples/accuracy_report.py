"""Accuracy report: force errors and energy drift (Table 4 style).

Builds a reduced-scale benchmark system and measures:

* the total force error of the Anton numerics path (tiered tables +
  fixed-point accumulation) against a conservative double-precision
  reference, and
* the numerical force error against the same parameters in float64,

both as fractions of the rms force, plus a short NVE energy trace.

Run:  python examples/accuracy_report.py
"""


from repro import FixedPointConfig, ForceCalculator, MDParams, Simulation, minimize_energy
from repro import benchmark_by_name
from repro.analysis import analytic_forces, energy_drift, force_error


def main() -> None:
    spec = benchmark_by_name("gpW")
    system = spec.build(scale=0.08, seed=0)
    print(f"gpW stand-in at reduced scale: {system.n_atoms} atoms, "
          f"{system.box.lengths[0]:.1f} A box")

    params = MDParams(cutoff=8.0, mesh=(32, 32, 32))
    minimize_energy(system, params, max_steps=80)

    # Anton path: tables + fixed point.
    anton = ForceCalculator(system, params)
    _codes, report = anton.compute_fixed(system.positions, FixedPointConfig().force_codec())

    # Same parameters, float64 analytic kernels.
    float_forces = analytic_forces(anton, system.positions)

    numerical = force_error(report.forces, float_forces)
    print(f"numerical force error (vs float64, same parameters): "
          f"{numerical.fraction:.2e} of rms force")
    print(f"  (paper Table 4 band: 8-12 x 10^-6)")

    # Short NVE run for the energy trace.
    run_params = MDParams(cutoff=8.0, mesh=(32, 32, 32))
    system.initialize_velocities(300.0, seed=1)
    from repro import BerendsenThermostat

    warm = Simulation(system, run_params, dt=2.5, mode="fixed",
                      thermostat=BerendsenThermostat(300.0, tau=200.0))
    warm.run(150)
    system.positions = warm.positions
    system.velocities = warm.velocities

    sim = Simulation(system.copy(), run_params, dt=2.5, mode="fixed")
    recs = sim.run(600, record_every=30)
    drift = energy_drift(recs, system.n_dof)
    print(f"\nNVE energy over {recs[-1].time_fs/1000:.1f} ps:")
    print(f"  rms fluctuation: {drift.rms_fluctuation:.3f} kcal/mol "
          f"({drift.relative_fluctuation:.1e} of total)")
    print(f"  fitted drift: {drift.drift_per_dof_per_us:+.2f} kcal/mol/DoF/us "
          f"(paper gpW: 0.035; short runs bound this loosely)")


if __name__ == "__main__":
    main()

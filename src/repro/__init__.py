"""repro — a functional reproduction of Anton's co-designed MD algorithms.

Reproduces the algorithms and measured behaviours of *Millisecond-Scale
Molecular Dynamics Simulations on Anton* (Shaw et al., SC 2009) as a
pure-Python library: the NT method, Gaussian Split Ewald, fixed-point
numerics (determinism, parallel invariance, exact reversibility),
tiered PPIP function tables, the distributed FFT, and a functional
whole-machine simulator with a calibrated performance model.

Quick start::

    from repro import build_water_box, MDParams, Simulation, minimize_energy

    system = build_water_box(n_molecules=64)
    params = MDParams(cutoff=5.5, mesh=(16, 16, 16))
    minimize_energy(system, params)
    system.initialize_velocities(300.0)
    sim = Simulation(system, params, dt=1.0, mode="fixed")
    sim.run(100, record_every=10)

``Simulation`` is the R=1 case of the batched engine and, like every
driver, runs on the compiled kernel tier where a C compiler is found
(``REPRO_KERNEL_TIER=numpy`` or ``kernel_tier="numpy"`` opts out; the
bits are the same).  See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core import (
    BerendsenBarostat,
    BerendsenThermostat,
    ChemicalSystem,
    ConstraintSolver,
    FixedPointConfig,
    FixedPointIntegrator,
    ForceCalculator,
    MDParams,
    Simulation,
    VelocityVerlet,
    compute_virial,
    instantaneous_pressure,
    minimize_energy,
    run_npt,
)
from repro.ensemble import (
    EnsembleSimulation,
    derive_replica_seeds,
    parse_seed_spec,
)
from repro.fault import (
    FaultEvent,
    FaultSchedule,
    RecoveryPolicy,
    parse_fault_spec,
)
from repro.io import (
    CheckpointStore,
    EnergyLogWriter,
    TrajectoryReader,
    TrajectoryWriter,
    read_energy_log,
)
from repro.machine import ANTON_2008, AntonHardware, AntonMachine
from repro.perf import PerformanceModel
from repro.systems import (
    BPTI,
    TABLE4_SYSTEMS,
    benchmark_by_name,
    build_hp_system,
    build_solvated_protein,
    build_water_box,
    hp_miniprotein,
    synthetic_protein,
)

__version__ = "0.1.0"

__all__ = [
    "BerendsenBarostat",
    "BerendsenThermostat",
    "compute_virial",
    "instantaneous_pressure",
    "run_npt",
    "ChemicalSystem",
    "ConstraintSolver",
    "FixedPointConfig",
    "FixedPointIntegrator",
    "ForceCalculator",
    "MDParams",
    "Simulation",
    "VelocityVerlet",
    "minimize_energy",
    "CheckpointStore",
    "EnergyLogWriter",
    "EnsembleSimulation",
    "derive_replica_seeds",
    "parse_seed_spec",
    "FaultEvent",
    "FaultSchedule",
    "RecoveryPolicy",
    "TrajectoryReader",
    "TrajectoryWriter",
    "parse_fault_spec",
    "read_energy_log",
    "ANTON_2008",
    "AntonHardware",
    "AntonMachine",
    "PerformanceModel",
    "BPTI",
    "TABLE4_SYSTEMS",
    "benchmark_by_name",
    "build_hp_system",
    "build_solvated_protein",
    "build_water_box",
    "hp_miniprotein",
    "synthetic_protein",
    "__version__",
]

"""High-level simulation driver.

A :class:`Simulation` is a one-lane view of an engine object.  In
fixed-point mode that is the one-replica case of the batched engine
(:class:`~repro.ensemble.engine.EnsembleSimulation`): the same force
calculator, neighbor list, constraint solver, MTS provider and
integrator objects, on the resolved kernel tier, with the engine's
replica-0 artifacts.  ``mode="float"`` is the conventional float64
reference path, :class:`FloatEngine`, wired here from the plain NumPy
parts with the same per-lane surface.  Stepping and output cadences
live in the one run loop (:mod:`repro.core.runloop`).  Also provides
steepest-descent minimization for system preparation.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, MDParams, MTSForceProvider
from repro.core.integrator import FixedPointConfig, VelocityVerlet
from repro.core.runloop import LaneEngine, run_loop
from repro.core.system import ChemicalSystem
from repro.ensemble.engine import EnsembleSimulation
from repro.io import EnergyRecord, TrajectoryWriter, check_fingerprint, system_fingerprint
from repro.kernels import get_suite

__all__ = ["EnergyRecord", "FloatEngine", "Simulation", "minimize_energy"]


def minimize_energy(
    system: ChemicalSystem,
    params: MDParams = MDParams(),
    max_steps: int = 200,
    initial_step: float = 0.02,
    force_tolerance: float = 10.0,
) -> float:
    """Steepest-descent minimization (system preparation).

    Moves atoms along the normalized force direction with an adaptive
    step, writing relaxed positions back into ``system``.  Returns the
    final potential energy.  Virtual sites follow their parents, and
    rigid constraints (which carry no bonded-term restoring force) are
    re-imposed with SHAKE after every move.

    Everything here runs on the resolved kernel tier
    (:func:`repro.kernels.get_suite`), as the engines do: the float
    force evaluation (:meth:`ForceCalculator.compute` — neighbor list,
    tabulated pair kernel, force deposit, mesh spread and gather) and
    SHAKE.  The relaxed positions and the returned energy are the same
    bits on every tier and thread count; ``REPRO_KERNEL_TIER=numpy`` is
    the pure-NumPy evaluation they are pinned to.
    """
    kernels = get_suite()
    calc = ForceCalculator(system, params, kernels=kernels)
    solver = None
    if system.topology.n_constraints:
        solver = ConstraintSolver(
            system.topology, system.masses, system.box, iterations=100, kernels=kernels
        )
    pos = system.box.wrap(system.positions.copy())
    if solver is not None:
        solver.shake(pos, pos)
    system.place_virtual_sites(pos)
    report = calc.compute(pos)
    energy = report.potential_energy
    step = initial_step
    for _ in range(max_steps):
        fmax = float(np.max(np.abs(report.forces)))
        if fmax < force_tolerance:
            break
        trial = pos + report.forces / max(fmax, 1e-12) * step
        if solver is not None:
            solver.shake(trial, pos)
        trial = system.box.wrap(trial)
        system.place_virtual_sites(trial)
        trial_report = calc.compute(trial)
        if trial_report.potential_energy < energy:
            pos, report, energy = trial, trial_report, trial_report.potential_energy
            step = min(step * 1.2, 0.5)
        else:
            step *= 0.5
            if step < 1e-6:
                break
    system.positions = pos
    return energy


class FloatEngine(LaneEngine):
    """The conventional float64 reference path as a one-lane engine.

    Wired from the plain NumPy parts (each on the NumPy suite it holds
    by default), with the same per-lane surface as the batched engine,
    so a :class:`Simulation` is the same thin view over either and the
    one run loop (:mod:`repro.core.runloop`) drives both.
    """

    mode = "float"
    io_phase = "io"

    def __init__(self, system, params, dt, thermostat, constraints):
        self.system = self.solo_system = system
        self.params = params
        self.dt = float(dt)
        self.calc = ForceCalculator(system, params)
        solver = None
        if constraints and system.topology.n_constraints:
            solver = ConstraintSolver(system.topology, system.masses, system.box)
        self.constraint_solver = solver
        self.provider = MTSForceProvider(self.calc)
        self.integrator = VelocityVerlet(
            system, self.provider, dt, constraints=solver, thermostat=thermostat
        )
        self.energy_logs: list[list[EnergyRecord]] = [[]]
        # Static arrays and parameters only, so one hash serves the run.
        self._fingerprint = system_fingerprint(system, params, self.mode, self.dt, None)

    def record_energy(self) -> list[EnergyRecord]:
        integ = self.integrator
        rec = EnergyRecord(
            step=integ.step_count,
            time_fs=integ.step_count * self.dt,
            kinetic=integ.kinetic_energy(),
            potential=float(sum(integ.last_info.energies.values())),
            temperature=integ.temperature(),
        )
        self.energy_logs[0].append(rec)
        return [rec]

    def replica_fingerprint(self) -> dict:
        return self._fingerprint

    def lane_state(self, r: int) -> dict:
        integ = self.integrator
        return {"positions": integ.positions.copy(), "velocities": integ.velocities.copy()}

    def restore_replicas(self, states) -> None:
        (chk,) = states
        if chk["mode"] != self.mode or chk["dt"] != self.dt:
            raise ValueError("checkpoint is for a different mode or time step")
        if chk.get("fingerprint") is not None:
            check_fingerprint(chk["fingerprint"], self.replica_fingerprint(), what="checkpoint")
        elif len(chk["positions"]) != self.system.n_atoms:
            raise ValueError(
                f"checkpoint holds {len(chk['positions'])} atoms, "
                f"this simulation has {self.system.n_atoms}"
            )
        integ = self.integrator
        integ.positions = chk["positions"].copy()
        integ.velocities = chk["velocities"].copy()
        integ.step_count = chk["step_count"]
        # Replay the force evaluation that produced the cached forces
        # (the constructor already consumed one provider call).
        self.provider.calls = chk["provider_calls"] - 1
        integ._forces, integ.last_info = self.provider(integ.positions)


class Simulation:
    """One runnable MD simulation: a one-lane view of an engine.

    Parameters
    ----------
    mode:
        ``"fixed"`` — Anton-numerics path (fixed-point state, integer
        force accumulation), stepped by the R=1 batched engine;
        ``"float"`` — conventional float64 path, NumPy only
        (:class:`FloatEngine`).
    constraints:
        ``True`` builds a solver from the topology's constraint list
        (rigid water, H-bond constraints); ``False`` integrates
        unconstrained (required for exact-reversibility experiments).
    kernel_tier, kernel_threads:
        The engine's bitwise-invisible knobs, forwarded (fixed mode only;
        ``None`` resolves through :func:`repro.kernels.get_suite`).
    """

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        dt: float = 2.5,
        mode: str = "fixed",
        fixed_config: FixedPointConfig = FixedPointConfig(),
        thermostat=None,
        constraints: bool = True,
        kernel_tier: str | None = None,
        kernel_threads: int | None = None,
    ):
        self.system = system
        self.params = params
        self.dt = float(dt)
        self.mode = mode
        self.fixed_config = fixed_config
        if mode == "fixed":
            eng = EnsembleSimulation(
                system,
                params,
                dt=dt,
                replicas=1,
                fixed_config=fixed_config,
                thermostat=thermostat,
                constraints=constraints,
                kernel_tier=kernel_tier,
                kernel_threads=kernel_threads,
            )
        elif mode == "float":
            eng = FloatEngine(system, params, dt, thermostat, constraints)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        #: The one-lane engine every method below is a view of.
        self.engine = eng
        self.calc, self.provider = eng.calc, eng.provider
        self.constraint_solver, self.integrator = eng.constraint_solver, eng.integrator
        self.energy_log: list[EnergyRecord] = eng.energy_logs[0]
        self.snapshots: list[np.ndarray] = []
        self.snapshot_steps: list[int] = []

    # -- state views ------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self.integrator.positions

    @property
    def timers(self):
        """Per-component wall-time counters of the force calculator."""
        return self.calc.timers

    @property
    def velocities(self) -> np.ndarray:
        return self.integrator.velocities

    def record_energy(self) -> EnergyRecord:
        return self.engine.record_energy()[0]

    # -- checkpointing ------------------------------------------------------

    def fingerprint(self) -> dict:
        """Run identity embedded in checkpoints/trajectories.

        Validated on :meth:`restore`: atom count, hashed static system
        arrays, force-parameter hash (minus the bitwise-irrelevant
        neighbor-list skin), mode, dt, and — on the fixed path — the
        integrator datapath widths.
        """
        return self.engine.replica_fingerprint()

    def checkpoint(self) -> dict:
        """Snapshot the exact dynamic state.

        For the fixed-point path the snapshot holds the raw integer
        state, so a restored simulation continues *bit-for-bit* — the
        property that let the paper's multi-month BPTI run survive
        interruptions without perturbing the trajectory.
        """
        return self.engine.replica_checkpoint()

    def restore(self, chk: dict) -> None:
        """Resume from a checkpoint taken on a compatible simulation.

        The engine's restore (:meth:`EnsembleSimulation.restore
        <repro.ensemble.engine.EnsembleSimulation.restore>`): the next
        step is identical to what the original run would have taken.  A
        mismatch is a ``ValueError`` (:class:`~repro.io.FingerprintMismatch`);
        legacy fingerprint-less float checkpoints get mode, dt and atom
        count checked.
        """
        self.engine.restore_replicas([chk])

    # -- trajectory output ---------------------------------------------------

    def open_trajectory(self, path, meta: dict | None = None) -> TrajectoryWriter:
        """A :class:`TrajectoryWriter` configured for this run."""
        return self.engine.open_replica_trajectory(path, meta)

    def append_trajectory(self, path) -> TrajectoryWriter:
        """Reopen ``path`` for resumed writing.

        Frames past the current step (written by an interrupted run
        after its last durable checkpoint) and any torn tail are
        truncated, so the finished file is identical to one from an
        uninterrupted run.
        """
        return self.engine.append_replica_trajectory(path)

    def write_frame(self, writer: TrajectoryWriter) -> None:
        """Append the current exact state as one frame."""
        self.engine.write_replica_frame(writer)

    def _sample(self, step: int) -> None:
        self.snapshots.append(self.positions.copy())
        self.snapshot_steps.append(step)

    def run(
        self,
        n_steps: int,
        record_every: int = 0,
        snapshot_every: int = 0,
        energy_writer=None,
        trajectory: TrajectoryWriter | None = None,
        trajectory_every: int = 0,
        checkpoint_store=None,
        checkpoint_every: int = 0,
    ) -> list[EnergyRecord]:
        """Advance ``n_steps``; returns the records appended this call.

        One call into the run loop (:func:`repro.core.runloop.run_loop`,
        which documents the global-step cadences and the
        flush-then-checkpoint order) on this simulation's engine.
        ``energy_writer`` streams each record as it is taken;
        ``trajectory`` / ``checkpoint_store`` persist frames and rolling
        snapshots; ``snapshot_every`` keeps in-memory position samples;
        a cadence of 0 disables its output.  With MTS, meaningful
        total-energy records need ``record_every`` to be a multiple of
        ``params.long_range_every``.
        """
        return run_loop(
            self.engine, n_steps, record_every, [energy_writer],
            [trajectory], trajectory_every, [checkpoint_store], checkpoint_every,
            sample_every=snapshot_every, sample=self._sample,
        )[0]

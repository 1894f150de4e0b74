"""High-level simulation driver.

A fixed-point :class:`Simulation` is the one-replica case of the
batched engine (:class:`~repro.ensemble.engine.EnsembleSimulation`):
the same force calculator, neighbor list, constraint solver, MTS
provider and integrator objects, on the resolved kernel tier, with the
engine's replica-0 artifacts.  ``mode="float"`` is the conventional
float64 reference path, wired here from the plain NumPy parts.  Also
provides steepest-descent minimization for system preparation.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, MDParams, MTSForceProvider
from repro.core.integrator import FixedPointConfig, VelocityVerlet
from repro.core.system import ChemicalSystem
from repro.ensemble.engine import EnsembleSimulation
from repro.io import (
    EnergyRecord,
    TrajectoryWriter,
    check_fingerprint,
    system_fingerprint,
    trajectory_decode,
)
from repro.kernels import get_suite

__all__ = ["EnergyRecord", "Simulation", "minimize_energy"]


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
    re-imposed with SHAKE after every move.  The neighbor list and
    its cutoff filter run on the resolved kernel tier; the float force
    evaluation itself is the NumPy one on every tier.
    """
    calc = ForceCalculator(system, params, kernels=get_suite())
    solver = None
    if system.topology.n_constraints:
        solver = ConstraintSolver(system.topology, system.masses, system.box, iterations=100)
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


class Simulation:
    """One runnable MD simulation.

    Parameters
    ----------
    mode:
        ``"fixed"`` — Anton-numerics path (fixed-point state, integer
        force accumulation), stepped by the R=1 batched engine;
        ``"float"`` — conventional float64 path, NumPy only.
    constraints:
        ``True`` builds a solver from the topology's constraint list
        (rigid water, H-bond constraints); ``False`` integrates
        unconstrained (required for exact-reversibility experiments).
    kernel_tier, kernel_threads:
        The engine's bitwise-invisible knobs, forwarded (fixed mode only;
        default: :func:`repro.kernels.resolve_config`).
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
        #: The R=1 engine every fixed-mode method below is a view of.
        self.engine = None
        if mode == "fixed":
            eng = self.engine = EnsembleSimulation(
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
            self.calc, self.provider = eng.calc, eng.provider
            self.constraint_solver, self.integrator = eng.constraint_solver, eng.integrator
            self.energy_log: list[EnergyRecord] = eng.energy_logs[0]
        elif mode == "float":
            self.calc = ForceCalculator(system, params)
            solver = None
            if constraints and system.topology.n_constraints:
                solver = ConstraintSolver(system.topology, system.masses, system.box)
            self.constraint_solver = solver
            self.provider = MTSForceProvider(self.calc)
            self.integrator = VelocityVerlet(
                system, self.provider, dt, constraints=solver, thermostat=thermostat
            )
            self.energy_log = []
        else:
            raise ValueError(f"unknown mode {mode!r}")
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
        if self.engine is not None:
            return self.engine.record_energy()[0]
        rec = EnergyRecord(
            step=self.integrator.step_count,
            time_fs=self.integrator.step_count * self.dt,
            kinetic=self.integrator.kinetic_energy(),
            potential=float(sum(self.integrator.last_info.energies.values())),
            temperature=self.integrator.temperature(),
        )
        self.energy_log.append(rec)
        return rec

    # -- checkpointing ------------------------------------------------------

    def fingerprint(self) -> dict:
        """Run identity embedded in checkpoints/trajectories.

        Validated on :meth:`restore`: atom count, hashed static system
        arrays, force-parameter hash (minus the bitwise-irrelevant
        neighbor-list skin), mode, dt, and — on the fixed path — the
        integrator datapath widths.
        """
        if self.engine is not None:
            return self.engine.replica_fingerprint()
        return system_fingerprint(self.system, self.params, self.mode, self.dt, None)

    def checkpoint(self) -> dict:
        """Snapshot the exact dynamic state.

        For the fixed-point path the snapshot holds the raw integer
        state, so a restored simulation continues *bit-for-bit* — the
        property that let the paper's multi-month BPTI run survive
        interruptions without perturbing the trajectory.
        """
        if self.engine is not None:
            return self.engine.replica_checkpoint(0)
        return {
            "mode": self.mode,
            "dt": self.dt,
            "step_count": self.integrator.step_count,
            "provider_calls": self.provider.calls,
            "fingerprint": self.fingerprint(),
            "positions": self.integrator.positions.copy(),
            "velocities": self.integrator.velocities.copy(),
        }

    def restore(self, chk: dict) -> None:
        """Resume from a checkpoint taken on a compatible simulation.

        The force cache is rebuilt by replaying the evaluation the
        original run performed at this state (same MTS phase), so the
        next step is identical to what the original would have taken.
        The buffered neighbor list needs no state in the checkpoint:
        its displacement trigger rebuilds it automatically if the
        restored positions have drifted past ``skin/2`` from the list's
        reference configuration, and the pair set it yields is a pure
        function of the current positions either way.  A mismatch is a
        ``ValueError`` (:class:`~repro.io.FingerprintMismatch`); legacy
        fingerprint-less checkpoints get mode, dt and atom count checked.
        """
        if self.engine is not None:
            return self.engine.restore([chk])
        if chk["mode"] != self.mode or chk["dt"] != self.dt:
            raise ValueError("checkpoint is for a different mode or time step")
        if chk.get("fingerprint") is not None:
            check_fingerprint(chk["fingerprint"], self.fingerprint(), what="checkpoint")
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

    # -- trajectory output ---------------------------------------------------

    def open_trajectory(self, path, meta: dict | None = None) -> TrajectoryWriter:
        """A :class:`TrajectoryWriter` configured for this run.

        The header carries the fingerprint plus the decode parameters
        (datapath widths, box) a reader needs to reconstruct physical
        positions/velocities bit-exactly without the system objects.
        """
        if self.engine is not None:
            return self.engine.open_replica_trajectory(path, meta)
        return TrajectoryWriter(path, fingerprint=self.fingerprint(),
                                decode=trajectory_decode(self.system, None), meta=meta)

    def append_trajectory(self, path) -> TrajectoryWriter:
        """Reopen ``path`` for resumed writing.

        Frames past the current step (written by an interrupted run
        after its last durable checkpoint) and any torn tail are
        truncated, so the finished file is identical to one from an
        uninterrupted run.
        """
        if self.engine is not None:
            return self.engine.append_replica_trajectory(path)
        return TrajectoryWriter.append(
            path, fingerprint=self.fingerprint(),
            resume_step=self.integrator.step_count,
        )

    def write_frame(self, writer: TrajectoryWriter) -> None:
        """Append the current exact state as one frame."""
        if self.engine is not None:
            return self.engine.write_replica_frame(writer, 0)
        step = self.integrator.step_count
        writer.write_frame(step, step * self.dt, {
            "positions": self.integrator.positions.copy(),
            "velocities": self.integrator.velocities.copy(),
        })

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

        ``record_every`` / ``snapshot_every`` of 0 disable logging.
        With MTS, meaningful total-energy records need ``record_every``
        to be a multiple of ``params.long_range_every``.

        ``energy_writer`` streams each energy record as it is taken
        (an :class:`~repro.io.EnergyLogWriter`).  ``trajectory`` /
        ``checkpoint_store`` persist frames and rolling snapshots every
        ``trajectory_every`` / ``checkpoint_every`` steps; their cadence
        is keyed to the *global* step count, so a resumed run writes at
        exactly the steps the uninterrupted run would have.
        """
        start = len(self.energy_log)
        for i in range(n_steps):
            self.integrator.step()
            done = i + 1
            step = self.integrator.step_count
            if record_every and done % record_every == 0:
                rec = self.record_energy()
                if energy_writer is not None:
                    energy_writer.write(rec)
            if snapshot_every and done % snapshot_every == 0:
                self.snapshots.append(self.positions.copy())
                self.snapshot_steps.append(step)
            if trajectory is not None and trajectory_every and step % trajectory_every == 0:
                self.write_frame(trajectory)
            if checkpoint_store is not None and checkpoint_every and step % checkpoint_every == 0:
                checkpoint_store.save(self.checkpoint(), step)
        return self.energy_log[start:]

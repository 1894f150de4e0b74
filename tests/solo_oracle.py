"""The solo fixed-point wiring, assembled from public parts — an oracle.

Since PR 17 ``Simulation(mode="fixed")`` *is* the R=1 batched engine,
so "the engine equals a solo run" can no longer be checked against
``Simulation``.  :class:`SoloOracle` is what ``Simulation`` used to
wire by hand: the plain NumPy :class:`ForceCalculator`
(``kernels=None``), the solo :class:`ConstraintSolver`, the scalar
:class:`BerendsenThermostat`, one :class:`MTSForceProvider` and one
:class:`FixedPointIntegrator`, stepped with the same record /
trajectory / checkpoint cadence and writing the same artifact formats.
It shares no code with ``repro.ensemble`` and none with
``repro.core.simulation``, and it never touches a kernel suite.
"""

import hashlib

from repro.core import (
    ConstraintSolver,
    FixedPointConfig,
    FixedPointIntegrator,
    ForceCalculator,
    MTSForceProvider,
)
from repro.io import EnergyRecord, TrajectoryWriter, system_fingerprint, trajectory_decode


def state_sha256(X, V) -> str:
    """sha256 over the raw little-endian int64 state codes, X then V."""
    h = hashlib.sha256()
    h.update(X.astype("<i8").tobytes())
    h.update(V.astype("<i8").tobytes())
    return h.hexdigest()


class SoloOracle:
    def __init__(self, system, params, dt, thermostat=None, constraints=True,
                 fixed_config=FixedPointConfig()):
        self.system, self.params, self.dt = system, params, float(dt)
        self.fixed_config = fixed_config
        self.calc = ForceCalculator(system, params)
        assert self.calc.kernels is None
        solver = None
        if constraints and system.topology.n_constraints:
            solver = ConstraintSolver(system.topology, system.masses, system.box)
        self.provider = MTSForceProvider(self.calc, force_codec=fixed_config.force_codec())
        self.integrator = FixedPointIntegrator(
            system, self.provider, dt, config=fixed_config,
            constraints=solver, thermostat=thermostat,
        )
        self.energy_log = []

    def state_codes(self):
        return self.integrator.state_codes()

    def fingerprint(self):
        return system_fingerprint(self.system, self.params, "fixed", self.dt, self.fixed_config)

    def checkpoint(self):
        X, V = self.integrator.state_codes()
        return {
            "mode": "fixed",
            "dt": self.dt,
            "step_count": self.integrator.step_count,
            "provider_calls": self.provider.calls,
            "fingerprint": self.fingerprint(),
            "X": X,
            "V": V,
        }

    def restore(self, chk):
        integ = self.integrator
        integ.X, integ.V = chk["X"].copy(), chk["V"].copy()
        integ.step_count = chk["step_count"]
        self.provider.calls = chk["provider_calls"] - 1
        integ._force_codes, integ.last_info = self.provider(integ.positions)

    def open_trajectory(self, path):
        return TrajectoryWriter(
            path, fingerprint=self.fingerprint(),
            decode=trajectory_decode(self.system, self.fixed_config),
        )

    def run(self, n_steps, record_every=0, energy_writer=None, trajectory=None,
            trajectory_every=0, checkpoint_store=None, checkpoint_every=0):
        integ = self.integrator
        for i in range(n_steps):
            integ.step()
            step = integ.step_count
            if record_every and (i + 1) % record_every == 0:
                rec = EnergyRecord(
                    step=step,
                    time_fs=step * self.dt,
                    kinetic=integ.kinetic_energy(),
                    potential=float(sum(integ.last_info.energies.values())),
                    temperature=integ.temperature(),
                )
                self.energy_log.append(rec)
                if energy_writer is not None:
                    energy_writer.write(rec)
            if trajectory is not None and trajectory_every and step % trajectory_every == 0:
                X, V = integ.state_codes()
                trajectory.write_frame(step, step * self.dt, {"X": X, "V": V})
            if checkpoint_store is not None and checkpoint_every and step % checkpoint_every == 0:
                checkpoint_store.save(self.checkpoint(), step)

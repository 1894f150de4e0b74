"""Berendsen pressure coupling (NPT) on the float path.

Pressure-controlled simulation is the use case Figure 4c's wide virial
accumulators exist for.  We implement Berendsen weak coupling: every
``scale_every`` steps the box and coordinates are rescaled by

    mu = (1 - (dt_eff / tau) * kappa * (P0 - P))^(1/3)

Rescaling the box invalidates the mesh Green's function and the
position codec, so NPT runs are driven by :func:`run_npt`, which
rebuilds the simulation at each coupling point and carries the
dynamic state across — the float64 path only (the paper likewise
exempts pressure-controlled runs from the exact-reversibility
guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.forces import ForceCalculator, MDParams
from repro.core.simulation import Simulation
from repro.core.system import ChemicalSystem
from repro.core.virial import compute_virial, instantaneous_pressure
from repro.geometry import Box

__all__ = ["BerendsenBarostat", "NPTRecord", "run_npt"]


@dataclass(frozen=True)
class NPTRecord:
    """One pressure-coupling event."""

    step: int
    pressure_bar: float
    box_side: float
    scale: float


@dataclass
class BerendsenBarostat:
    """Weak-coupling barostat parameters.

    ``compressibility`` is in 1/bar (water: ~4.5e-5); ``tau`` in fs.
    ``max_scale`` clamps each rescale step (robustness against noisy
    instantaneous pressures of small systems).
    """

    pressure_bar: float = 1.0
    tau: float = 1000.0
    compressibility: float = 4.5e-5
    max_scale: float = 0.01

    def scale_factor(self, pressure_bar: float, dt_eff: float) -> float:
        arg = 1.0 - (dt_eff / self.tau) * self.compressibility * (
            self.pressure_bar - pressure_bar
        )
        # arg <= 0 means a (clamped) maximal shrink, not a no-op.
        mu = arg ** (1.0 / 3.0) if arg > 0 else 0.0
        return float(np.clip(mu, 1.0 - self.max_scale, 1.0 + self.max_scale))


def run_npt(
    system: ChemicalSystem,
    params: MDParams,
    barostat: BerendsenBarostat,
    dt: float = 2.5,
    n_steps: int = 1000,
    scale_every: int = 20,
) -> list[NPTRecord]:
    """Run NPT dynamics; mutates ``system`` (positions/velocities/box).

    Returns the pressure-coupling log.  The density responds on the
    barostat's time scale: boxes above the target pressure expand,
    compressed ones relax.
    """
    records: list[NPTRecord] = []
    steps_done = 0
    while steps_done < n_steps:
        chunk = min(scale_every, n_steps - steps_done)
        sim = Simulation(system, params, dt=dt, mode="float")
        sim.run(chunk)
        steps_done += chunk
        system.positions = sim.integrator.positions.copy()
        system.velocities = sim.integrator.velocities.copy()

        calc = ForceCalculator(system, params)
        w = compute_virial(calc, system.positions)
        p = instantaneous_pressure(system.kinetic_energy(), w.total, system.box.volume)
        mu = barostat.scale_factor(p, dt_eff=chunk * dt)
        if mu != 1.0:
            new_box = Box(system.box.lengths * mu)
            system.positions = system.positions * mu
            system.box = new_box
        records.append(
            NPTRecord(
                step=steps_done,
                pressure_bar=p,
                box_side=float(system.box.lengths[0]),
                scale=mu,
            )
        )
    return records

"""Berendsen temperature control (the paper's BPTI run used it)."""

from __future__ import annotations

import math

__all__ = ["BerendsenThermostat"]

#: Largest change of lambda from 1 in one rescale.
CLAMP = 0.1


class BerendsenThermostat:
    """Weak-coupling velocity rescaling.

    ``lambda = sqrt(1 + (dt/tau) (T0/T - 1))``, clamped to within
    :data:`CLAMP` of 1 to avoid violent rescaling when the instantaneous
    temperature is far from the target (e.g. the first steps of a cold
    start).

    The thermostat is a callable taking the integrator, so it plugs
    into both the fixed-point and float paths.  Note the paper's
    reversibility claim explicitly excludes thermostatted runs.
    """

    def __init__(self, temperature: float, tau: float = 1000.0):
        if temperature <= 0 or tau <= 0:
            raise ValueError("temperature and tau must be positive")
        self.temperature = float(temperature)
        self.tau = float(tau)

    def __call__(self, integrator) -> float:
        return self.scale(integrator.temperature(), integrator.dt)

    def scale(self, t_now: float, dt: float) -> float:
        """Lambda for instantaneous temperature ``t_now`` over a step ``dt``
        (1.0 at ``t_now <= 0``); the ensemble's per-replica scale too."""
        if t_now <= 0:
            return 1.0
        arg = 1.0 + (dt / self.tau) * (self.temperature / t_now - 1.0)
        lam = math.sqrt(max(arg, 0.0))
        return min(max(lam, 1.0 - CLAMP), 1.0 + CLAMP)

"""Integrators: fixed-point velocity Verlet (Anton numerics) and a
float64 reference.

The fixed-point integrator realizes Section 4's properties:

* **Determinism** — every update is integer arithmetic on quantized
  increments.
* **Parallel invariance** — force codes arrive as order-invariant
  integer sums (see :mod:`repro.fixedpoint.accumulate`).
* **Exact reversibility** — each half-kick adds an increment that is a
  deterministic function of positions only, and the drift adds an
  increment that is a function of velocities only; round-to-nearest-
  even is odd-symmetric, so negating the velocities retraces the
  trajectory bit-for-bit (when run without constraints or temperature
  control, exactly as the paper qualifies).

Positions are stored as unsigned modular fractions of the box (torus
arithmetic *is* periodic wrapping); velocities and forces as signed
fixed point against physical bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.system import ChemicalSystem
from repro.fixedpoint import FixedFormat, ScaledFixed, round_nearest_even
from repro.geometry import Box
from repro.util import ACCEL_UNIT

__all__ = ["FixedPointConfig", "PositionCodec", "FixedPointIntegrator", "VelocityVerlet"]


@dataclass(frozen=True)
class FixedPointConfig:
    """Bit widths and physical bounds of the integrator datapaths.

    Defaults give position resolution ~1e-11 A and velocity resolution
    ~5e-13 A/fs — comfortably below thermal scales, in the spirit of
    Anton's wide integration datapaths (its arithmetic pipelines are
    narrower; see Figure 4 and :mod:`repro.functions`).
    """

    position_bits: int = 40
    velocity_bits: int = 40
    velocity_limit: float = 0.25  # A/fs; ~16 thermal sigmas for hydrogen
    force_bits: int = 40
    force_limit: float = 8192.0  # kcal/mol/A

    def force_codec(self) -> ScaledFixed:
        return ScaledFixed(FixedFormat(self.force_bits), self.force_limit)

    def velocity_codec(self) -> ScaledFixed:
        return ScaledFixed(FixedFormat(self.velocity_bits), self.velocity_limit)


class PositionCodec:
    """Positions as unsigned modular fractions of the periodic box.

    A coordinate x maps to ``round(x / L * 2**bits) mod 2**bits``; the
    torus wrap of the integer code is exactly the periodic boundary
    condition, so drift never needs a separate wrapping pass.
    """

    def __init__(self, box: Box, bits: int = 40):
        if not 8 <= bits <= 62:
            raise ValueError("position bits must be in [8, 62]")
        self.box = box
        self.bits = bits
        self.modulus = np.int64(1) << np.int64(bits)
        self.scale = float(self.modulus) / box.lengths  # codes per A, per axis

    @property
    def resolution(self) -> np.ndarray:
        """Physical size of one code step per axis (A)."""
        return 1.0 / self.scale

    def encode(self, positions: np.ndarray) -> np.ndarray:
        codes = round_nearest_even(self.box.wrap(positions) * self.scale).astype(np.int64)
        return np.mod(codes, self.modulus)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(np.float64) / self.scale

    def advance(self, codes: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Torus-arithmetic position update."""
        with np.errstate(over="ignore"):
            return np.mod(codes + delta, self.modulus)


class FixedPointIntegrator:
    """Velocity Verlet on fixed-point state.

    Parameters
    ----------
    system:
        Supplies initial state, masses, vsite layout.
    force_fn:
        ``force_fn(positions) -> (force_codes, info)`` where
        ``force_codes`` is an int64 (n, 3) array in the config's force
        codec (an order-invariant integer sum of quantized
        contributions) and ``info`` is a dict of energies.
    dt:
        Time step in femtoseconds (the paper uses 2.5 fs).
    constraints:
        Optional :class:`ConstraintSolver`; its ``shake`` after drift and
        ``rattle`` after each kick (SETTLE for rigid water, exact to
        rounding; sweeps for the other constraints, which may end on the
        solver's sweep cap rather than its tolerance).
    thermostat:
        Optional callable ``thermostat(integrator) -> lambda`` applied
        to velocities at the end of each step.
    timers:
        Optional :class:`~repro.perf.Timers`; when given, each step is
        recorded as a ``step`` phase with ``kick``/``drift``/``force``/
        ``thermostat`` children (and ``constraints`` nested where the
        solver runs), feeding the hierarchical profile.  Timing is
        observational only — a fresh private registry is used when none
        is supplied.
    """

    def __init__(
        self,
        system: ChemicalSystem,
        force_fn,
        dt: float,
        config: FixedPointConfig = FixedPointConfig(),
        constraints: ConstraintSolver | None = None,
        thermostat=None,
        timers=None,
    ):
        self.system = system
        self.force_fn = force_fn
        self.dt = float(dt)
        self.config = config
        self.constraints = constraints
        self.thermostat = thermostat
        if timers is None:
            # Deferred import: repro.perf pulls in the workload model,
            # which imports repro.core.
            from repro.perf import Timers

            timers = Timers()
        self.timers = timers

        self.pos_codec = PositionCodec(system.box, config.position_bits)
        self.vel_codec = config.velocity_codec()
        self.force_codec = config.force_codec()

        self.X = self.pos_codec.encode(system.positions)
        self.V = self.vel_codec.quantize(system.velocities)
        # Per-atom kick factor: force codes -> velocity-code increments.
        inv_m = np.zeros(system.n_atoms)
        m = system.massive
        inv_m[m] = 1.0 / system.masses[m]
        self._kick = (
            self.force_codec.resolution
            * (self.dt / 2.0)
            * ACCEL_UNIT
            * inv_m
            / self.vel_codec.resolution
        )[:, None]
        # Velocity codes -> position-code increments, per axis.
        self._drift = (self.vel_codec.resolution * self.dt * self.pos_codec.scale)[None, :]
        self._force_codes, self.last_info = self.force_fn(self.positions)
        self.step_count = 0

    # -- views -------------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self.pos_codec.decode(self.X)

    @property
    def velocities(self) -> np.ndarray:
        return self.vel_codec.reconstruct(self.V)

    def state_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw integer state, for bitwise trajectory comparison."""
        return self.X.copy(), self.V.copy()

    # -- dynamics -------------------------------------------------------------

    def _half_kick(self) -> None:
        dv = round_nearest_even(self._force_codes.astype(np.float64) * self._kick).astype(np.int64)
        with np.errstate(over="ignore"):
            self.V += dv
        if self.constraints is not None:
            with self.timers.time("constraints"):
                v = self.velocities
                self.constraints.rattle(v, self.positions)
                self.V = self.vel_codec.quantize(v)

    def _drift_full(self) -> None:
        dx = round_nearest_even(self.V.astype(np.float64) * self._drift).astype(np.int64)
        self.X = self.pos_codec.advance(self.X, dx)
        needs_shake = self.constraints is not None and self.constraints.n_constraints
        has_vsites = len(self.system.topology.vsite_idx) > 0
        if needs_shake or has_vsites:
            pos = self.positions
            if needs_shake:
                with self.timers.time("constraints"):
                    ref = self.pos_codec.decode(self._X_before_drift)
                    unshaken = pos.copy()
                    self.constraints.shake(pos, ref)
                    # Feed the constraint displacement back into the
                    # velocities (the RATTLE position-stage multipliers);
                    # omitting this silently drains energy every step.
                    v = self.velocities + self.system.box.minimum_image(pos - unshaken) / self.dt
                    self.V = self.vel_codec.quantize(v)
            if has_vsites:
                self.system.place_virtual_sites(pos)
            self.X = self.pos_codec.encode(pos)

    def step(self, n: int = 1) -> None:
        """Advance n velocity-Verlet steps."""
        t = self.timers
        for _ in range(n):
            with t.time("step"):
                with t.time("kick"):
                    self._half_kick()
                self._X_before_drift = self.X
                with t.time("drift"):
                    self._drift_full()
                with t.time("force"):
                    self._force_codes, self.last_info = self.force_fn(self.positions)
                with t.time("kick"):
                    self._half_kick()
                if self.thermostat is not None:
                    with t.time("thermostat"):
                        lam = self.thermostat(self)
                        # np.any handles both the scalar solo case and a
                        # per-atom (ensemble) lambda array; a replica at
                        # exactly lam == 1.0 is untouched either way
                        # since rint(float64(V) * 1.0) == V for |V| < 2^53.
                        if np.any(lam != 1.0):
                            self.V = round_nearest_even(
                                self.V.astype(np.float64) * lam
                            ).astype(np.int64)
            self.step_count += 1

    def negate_velocities(self) -> None:
        """Time reversal: flip all momenta (exact in fixed point)."""
        self.V = -self.V

    def kinetic_energy(self) -> float:
        return self.system.kinetic_energy(self.velocities)

    def temperature(self) -> float:
        return self.system.temperature(self.velocities)


class VelocityVerlet:
    """Float64 velocity Verlet — the conventional-code reference path.

    Same structure as the fixed-point integrator but with a plain
    float force function ``force_fn(positions) -> (forces, info)``.
    """

    def __init__(
        self,
        system: ChemicalSystem,
        force_fn,
        dt: float,
        constraints: ConstraintSolver | None = None,
        thermostat=None,
    ):
        self.system = system
        self.force_fn = force_fn
        self.dt = float(dt)
        self.constraints = constraints
        self.thermostat = thermostat
        self.positions = system.positions.copy()
        self.velocities = system.velocities.copy()
        inv_m = np.zeros(system.n_atoms)
        m = system.massive
        inv_m[m] = 1.0 / system.masses[m]
        self._acc = (ACCEL_UNIT * inv_m)[:, None]
        self._forces, self.last_info = force_fn(self.positions)
        self.step_count = 0

    def _half_kick(self) -> None:
        self.velocities += self._forces * self._acc * (self.dt / 2.0)
        if self.constraints is not None:
            self.constraints.rattle(self.velocities, self.positions)

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            self._half_kick()
            ref = self.positions.copy()
            self.positions += self.velocities * self.dt
            if self.constraints is not None and self.constraints.n_constraints:
                unshaken = self.positions.copy()
                self.constraints.shake(self.positions, ref)
                # RATTLE position-stage velocity correction.
                self.velocities += (self.positions - unshaken) / self.dt
            self.system.place_virtual_sites(self.positions)
            self.positions = self.system.box.wrap(self.positions)
            self._forces, self.last_info = self.force_fn(self.positions)
            self._half_kick()
            if self.thermostat is not None:
                lam = self.thermostat(self)
                if lam != 1.0:
                    self.velocities *= lam
            self.step_count += 1

    def kinetic_energy(self) -> float:
        return self.system.kinetic_energy(self.velocities)

    def temperature(self) -> float:
        return self.system.temperature(self.velocities)

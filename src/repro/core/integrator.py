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
    condition, so drift never needs a separate wrapping pass.  The
    modulus is a power of two, so the reduction is a mask of the low
    ``bits`` bits, which equals ``np.mod`` on every int64 (DESIGN.md,
    power-of-two modulus lemma).  Decoded positions lie in [0, L).
    """

    def __init__(self, box: Box, bits: int = 40):
        if not 8 <= bits <= 62:
            raise ValueError("position bits must be in [8, 62]")
        self.box = box
        self.bits = bits
        self.modulus = np.int64(1) << np.int64(bits)
        self.mask = self.modulus - np.int64(1)
        self.scale = float(self.modulus) / box.lengths  # codes per A, per axis

    @property
    def resolution(self) -> np.ndarray:
        """Physical size of one code step per axis (A)."""
        return 1.0 / self.scale

    def encode(self, positions: np.ndarray) -> np.ndarray:
        x = self.box.wrap(positions)
        np.multiply(x, self.scale, out=x)
        np.rint(x, out=x)
        return np.bitwise_and(x.astype(np.int64), self.mask)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return np.divide(codes, self.scale)

    def advance(self, codes: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Torus-arithmetic position update (int64 adds wrap silently)."""
        out = np.add(codes, delta)
        return np.bitwise_and(out, self.mask, out=out)


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
        recorded as a ``step`` phase with ``kick``/``drift``/
        ``constraints``/``force``/``thermostat`` children — the kick and
        drift arithmetic are leaves of their own, the solver's solves
        and the codec passes around them ``constraints`` — feeding the
        hierarchical profile.  Timing is observational only — a fresh
        private registry is used when none is supplied.
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
        # The velocity format's two's-complement wrap, as int64 operands.
        bits = self.vel_codec.fmt.bits
        self._v_half = np.int64(1) << np.int64(bits - 1)
        self._v_mask = (np.int64(1) << np.int64(bits)) - np.int64(1)
        # Scratch for the passes below: every step's arithmetic runs in
        # these instead of allocating a temporary per operation.
        shape = (system.n_atoms, 3)
        self._f = np.empty(shape)
        self._g = np.empty(shape)
        self._h = np.empty(shape)
        self._i = np.empty(shape, dtype=np.int64)
        #: The decoded positions of ``X`` (read-only) and the ``X`` they decode.
        self._pos = self._pos_of = None
        self._force_codes, self.last_info = self.force_fn(self.positions)
        self.step_count = 0

    # -- views -------------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        """``X`` decoded: a read-only array, decoded once per ``X``.

        ``X`` is replaced, never written in place, so the same array
        serves a step's force evaluation, the next kick's constraint
        solve and the next drift's reference (and a machine's home-box
        lookups, which key on it).
        """
        X = self.X
        if self._pos_of is not X:
            pos = self.pos_codec.decode(X)
            pos.flags.writeable = False
            self._pos, self._pos_of = pos, X
        return self._pos

    @property
    def velocities(self) -> np.ndarray:
        return self.vel_codec.reconstruct(self.V)

    def state_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw integer state, for bitwise trajectory comparison."""
        return self.X.copy(), self.V.copy()

    # -- dynamics -------------------------------------------------------------
    #
    # Each pass below is the expression it replaces, operation for
    # operation, with every intermediate written into the scratch arrays
    # (``out=``): a ufunc given an int64 and a float64 operand converts
    # the integer exactly as ``astype(np.float64)`` does, and a copy with
    # ``casting="unsafe"`` is ``astype(np.int64)``'s conversion.

    def _velocities_into(self, out: np.ndarray) -> np.ndarray:
        """``vel_codec.reconstruct(V)`` written into ``out``."""
        c = self.vel_codec
        np.multiply(self.V, c.fmt.resolution, out=out)
        return np.multiply(out, c.limit, out=out)

    def _store_velocities(self, v: np.ndarray) -> None:
        """``V = vel_codec.quantize(v)``, written into ``V`` (``v`` is consumed)."""
        c, V = self.vel_codec, self.V
        np.divide(v, c.limit, out=v)
        np.multiply(v, c.fmt.scale, out=v)
        np.rint(v, out=v)
        np.copyto(V, v, casting="unsafe")
        # FixedFormat.wrap: ((codes + half) & mask) - half.
        np.add(V, self._v_half, out=V)
        np.bitwise_and(V, self._v_mask, out=V)
        np.subtract(V, self._v_half, out=V)

    def _half_kick(self) -> None:
        t = self.timers
        with t.time("kick"):
            f, dv = self._f, self._i
            np.multiply(self._force_codes, self._kick, out=f)
            np.rint(f, out=f)
            np.copyto(dv, f, casting="unsafe")
            np.add(self.V, dv, out=self.V)  # int64 adds wrap silently
        if self.constraints is not None:
            with t.time("constraints"):
                v = self._velocities_into(f)
                self.constraints.rattle(v, self.positions)
                self._store_velocities(v)

    def _drift_full(self) -> None:
        t = self.timers
        with t.time("drift"):
            ref = self.positions  # X before the drift, decoded
            f, dx = self._f, self._i
            np.multiply(self.V, self._drift, out=f)
            np.rint(f, out=f)
            np.copyto(dx, f, casting="unsafe")
            self.X = self.pos_codec.advance(self.X, dx)
            needs_shake = self.constraints is not None and self.constraints.n_constraints
            has_vsites = len(self.system.topology.vsite_idx) > 0
            if not (needs_shake or has_vsites):
                return
            pos = self.pos_codec.decode(self.X)
        if needs_shake:
            with t.time("constraints"):
                # Shaken in kept scratch, whose pointer a C solve has
                # seen; pos keeps the unshaken coordinates.
                unshaken, pos = pos, self._h
                np.copyto(pos, unshaken)
                self.constraints.shake(pos, ref)
                # Feed the constraint displacement back into the
                # velocities (the RATTLE position-stage multipliers);
                # omitting this silently drains energy every step:
                # v + minimum_image(pos - unshaken) / dt.
                d = np.subtract(pos, unshaken, out=self._g)
                L = self.system.box.lengths
                np.divide(d, L, out=f)
                np.rint(f, out=f)  # np.round to 0 decimals is rint
                np.multiply(f, L, out=f)
                np.subtract(d, f, out=d)
                np.divide(d, self.dt, out=d)
                v = np.add(self._velocities_into(f), d, out=f)
                self._store_velocities(v)
        with t.time("drift"):
            if has_vsites:
                self.system.place_virtual_sites(pos)
            self.X = self.pos_codec.encode(pos)

    def step(self) -> None:
        """Advance one velocity-Verlet step."""
        t = self.timers
        with t.time("step"):
            self._half_kick()
            self._drift_full()
            with t.time("force"):
                self._force_codes, self.last_info = self.force_fn(self.positions)
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

    def step(self) -> None:
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

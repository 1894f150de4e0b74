"""Batched ensemble engine: R independent replicas in one stacked system.

The paper's throughput numbers come from running *many* independent
simulations (seeds, mutants, temperatures) at once; on commodity
hardware the analogous win is amortizing per-step dispatch overhead
across replicas.  This module stacks R replicas of one chemical system
along the atom axis (replica ``r`` owns rows ``[r*N, (r+1)*N)``) and
steps them all through ONE pass of the vectorized/compiled kernels per
phase: one batched neighbor-list rebuild, one fused pair kernel call,
one R-lane mesh pass (:meth:`~repro.ewald.GaussianSplitEwald.mesh_pass`,
the pass the float path and the machine run with one lane), one
fixed-point accumulation, one batched SETTLE of the rigid waters (and
one batched SHAKE/RATTLE sweep of any other constraints).

The correctness bar is *bitwise*: every replica's integer trajectory
(position/velocity codes), energies, and checkpoint artifacts are
byte-identical to the same seed run solo, on both kernel tiers.  Since
a fixed-point :class:`~repro.core.simulation.Simulation` *is* this
engine at R=1 that holds by construction for R=1; the independent
oracle — the plain NumPy ``ForceCalculator`` wiring this engine must
reproduce, on the NumPy suite it holds by default — is assembled from
public parts by
``tests/solo_oracle.py``.  For R > 1 the engine keeps it by
construction rather than by tolerance:

* all per-atom/per-pair/per-term arithmetic is elementwise, so tiled
  inputs produce tiled outputs with identical bits;
* force accumulation is the same order-invariant fixed-point integer
  sum the solo path uses — replica blocks cannot interact because no
  pair, bonded term, or stencil point ever crosses a block boundary;
* every energy but the k-space and self terms is an integer sum too:
  each term is quantized once to an energy code, and a replica's total
  is the sum of its block of codes (the walk's block of rows, a reshape
  of every other term array) — the solo sum, since integer sums
  commute; the mesh pass returns each lane's k-space energy with its
  solo bits, and a lane's self energy is the solo scalar;
* the shared-skin neighbor list is bitwise harmless because the pair
  set is a pure function of the current configuration regardless of
  when the list was rebuilt.

Replicas are *detachable*: :meth:`EnsembleSimulation.detach` (or any
per-replica checkpoint) restores into a solo ``Simulation`` that
continues bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import (
    ForceCalculator,
    ForceReport,
    MDParams,
    MTSForceProvider,
)
from repro.core.integrator import FixedPointConfig, FixedPointIntegrator
from repro.core.runloop import LaneEngine, run_loop
from repro.core.system import ChemicalSystem
from repro.core.thermostat import BerendsenThermostat
from repro.forcefield.exclusions import ExclusionTable, _pair_keys
from repro.forcefield.topology import Topology
from repro.geometry.neighborlist import EnsembleNeighborList
from repro.io import EnergyRecord, FingerprintMismatch, check_fingerprint, system_fingerprint
from repro.kernels import NUMPY_SUITE, get_suite

__all__ = [
    "tile_system",
    "tile_exclusions",
    "EnsembleForceCalculator",
    "EnsembleConstraintSolver",
    "EnsembleBerendsenThermostat",
    "EnsembleSimulation",
]


# -- system tiling ---------------------------------------------------------


def tile_exclusions(solo: ExclusionTable, replicas: int) -> ExclusionTable:
    """Replicate an exclusion table R times with per-block index offsets.

    Built directly from the solo table's arrays instead of re-walking
    the tiled covalent graph (the graph walk is Python-loop heavy).
    Block r's keys are ``lo*(R*N) + hi`` with ``lo`` shifted by ``r*N``,
    so concatenated blocks are globally sorted and the binary-search
    membership test works unchanged.
    """
    n = solo.n_atoms
    big_n = replicas * n

    def shift(block: np.ndarray) -> np.ndarray:
        if not len(block):
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate([block + np.int64(r * n) for r in range(replicas)])

    def keys(block: np.ndarray) -> np.ndarray:
        if not len(block):
            return np.empty(0, dtype=np.int64)
        return _pair_keys(block[:, 0], block[:, 1], big_n)

    excluded = shift(solo.excluded)
    pair14 = shift(solo.pair14)
    return ExclusionTable(
        n_atoms=big_n,
        excluded=excluded,
        pair14=pair14,
        lj_scale14=solo.lj_scale14,
        coul_scale14=solo.coul_scale14,
        _excluded_keys=keys(excluded),
        _pair14_keys=keys(pair14),
    )


def tile_system(
    solo: ChemicalSystem, replicas: int, velocities: np.ndarray | None = None
) -> ChemicalSystem:
    """Stack R copies of ``solo`` along the atom axis.

    Topology terms are merged replica-major (block r's bonds before
    block r+1's), so each per-term energy array is R equal lane blocks:
    the force calculator's lane sums are a reshape of it.  ``velocities``
    optionally provides the stacked ``(R*N, 3)`` initial velocities
    (per-replica seeds); default tiles the solo velocities.
    """
    n = solo.n_atoms
    top = Topology(replicas * n)
    for r in range(replicas):
        top.merge(solo.topology, r * n)
    if velocities is None:
        velocities = np.tile(solo.velocities, (replicas, 1))
    return ChemicalSystem(
        box=solo.box,
        positions=np.tile(solo.positions, (replicas, 1)),
        masses=np.tile(solo.masses, replicas),
        charges=np.tile(solo.charges, replicas),
        type_ids=np.tile(solo.type_ids, replicas),
        lj=solo.lj,
        topology=top,
        velocities=np.asarray(velocities, dtype=np.float64),
        exclusions=tile_exclusions(solo.exclusions, replicas),
        meta={**solo.meta, "ensemble_replicas": replicas, "ensemble_n_solo": n},
    )


# -- forces ----------------------------------------------------------------


class EnsembleForceCalculator(ForceCalculator):
    """Force calculator over a replica-stacked system.

    The solo :class:`ForceCalculator` on the tiled system — one kernel
    pass per phase — with the replicas as its lanes: the mesh pass runs
    R lanes, and every energy comes back as an ``(R,)`` per-replica
    array whose entries are bitwise equal to the solo scalars (integer
    lane sums, and the per-lane k-space and self floats).  Phases are
    charged to ``ensemble_*`` timers so the hierarchical profile
    attributes batched work separately.
    """

    _phase_prefix = "ensemble_"

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams,
        replicas: int,
        n_solo: int,
        kernels=NUMPY_SUITE,
    ):
        if system.n_atoms != replicas * n_solo:
            raise ValueError("tiled system size does not match replicas * n_solo")
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
        super().__init__(system, params, kernels=kernels)
        # Batched rebuild: per-replica cell binning in a single
        # filter/sort pass (cells are offset per replica so identical
        # replica configurations never cross-pair).
        self.neighbor_list = EnsembleNeighborList(
            system.box,
            params.cutoff,
            replicas,
            n_solo,
            skin=params.skin,
            exclusions=system.exclusions,
            timers=self.timers,
            kernels=self.kernels,
        )

    def _lanes(self, values: np.ndarray) -> list:
        """``(k, R)`` per-lane energies: one ``(R,)`` array per row."""
        return list(values)

    def _kspace(self, positions: np.ndarray, codec=None) -> tuple[np.ndarray, np.ndarray]:
        """Per-replica k-space energies and stacked mesh forces: the one
        mesh pass with replicas as its lanes, each bitwise its solo evaluation."""
        with self.timers.time(self._phase_prefix + "kspace"):
            return self.gse.mesh_pass(
                positions, self.system.charges[: self.n_solo], lanes=self.replicas,
                codec=codec, kernels=self.kernels, plan=self._mesh_plan,
                timers=self.timers, wrapped=self._walked(positions),
            )

    # Delegations only: benchmarks/perf/trace.py wraps these two by this
    # class's __dict__, so they must stay defined here.
    def compute_long_fixed(self, positions: np.ndarray, force_codec):
        return super().compute_long_fixed(positions, force_codec)

    def compute_fixed(
        self, positions: np.ndarray, force_codec, include_long_range: bool = True
    ) -> tuple[np.ndarray, ForceReport]:
        return super().compute_fixed(positions, force_codec, include_long_range)


# -- constraints -----------------------------------------------------------


class EnsembleConstraintSolver:
    """SETTLE + SHAKE/RATTLE over R replica blocks in one batched dispatch.

    Wraps ONE solo :class:`ConstraintSolver` (the constraint topology
    is identical in every block) and dispatches through the kernel
    suite (the NumPy one by default): the compiled tier solves all
    replicas' rigid waters in one ``settle_batch`` C call, and every
    tier sweeps all replicas' other constraints in one ``shake_batch``
    / ``rattle_batch`` call that runs the solo NumPy sweep per block —
    bitwise the solo solve.  For those swept constraints that includes
    each block's own convergence exit (a converged replica must not
    absorb extra sweeps, which would change bits); SETTLE is exact and
    has none.
    """

    def __init__(
        self, solo: ConstraintSolver, replicas: int, n_solo: int, kernels=NUMPY_SUITE
    ):
        self.solo = solo
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
        self.kernels = kernels

    @property
    def n_constraints(self) -> int:
        return self.solo.n_constraints * self.replicas

    def shake(self, positions: np.ndarray, reference: np.ndarray, tol: float = 1e-10):
        return self.solo.shake_blocks(
            self.kernels, positions, reference, float(tol), self.replicas, self.n_solo
        )

    def rattle(self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12):
        return self.solo.rattle_blocks(
            self.kernels, velocities, positions, float(tol), self.replicas, self.n_solo
        )

    def max_residual(self, positions: np.ndarray) -> float:
        """Largest solo :meth:`ConstraintSolver.max_residual` over the blocks."""
        n = self.n_solo
        return max(
            self.solo.max_residual(positions[r * n : (r + 1) * n])
            for r in range(self.replicas)
        )


# -- thermostat ------------------------------------------------------------


class EnsembleBerendsenThermostat:
    """Per-replica Berendsen scaling with the exact solo scalar math.

    Computes each replica's temperature from its own contiguous
    velocity block (solo masses, solo ``n_dof``) and its lambda with
    the solo thermostat's own :meth:`BerendsenThermostat.scale`, then
    broadcasts ``(R,) -> (R*N, 1)`` so the integrator applies one
    vectorized velocity scale.  A replica at exactly ``lam == 1.0`` is
    untouched (the integrator's round-trip through float64 is exact for
    40-bit codes).
    """

    def __init__(
        self,
        solo: BerendsenThermostat,
        replicas: int,
        n_solo: int,
        solo_system: ChemicalSystem,
    ):
        self.solo = solo
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
        self.solo_system = solo_system

    def __call__(self, integrator) -> np.ndarray:
        v = integrator.velocities
        n = self.n_solo
        lams = np.empty(self.replicas)
        for r in range(self.replicas):
            t_now = self.solo_system.temperature(v[r * n : (r + 1) * n])
            lams[r] = self.solo.scale(t_now, integrator.dt)
        return np.repeat(lams, n)[:, None]


# -- driver ----------------------------------------------------------------


class EnsembleSimulation(LaneEngine):
    """Drive R bit-exact replicas through one batched integrator.

    Parameters mirror :class:`~repro.core.simulation.Simulation` where
    they overlap.  ``system`` is the *solo* prepared system (already
    minimized); each replica starts from its positions with velocities
    drawn from its own seed.

    ``seeds``/``temperature`` initialize replica r's velocities exactly
    as ``system.initialize_velocities(temperature, seed=seeds[r])``
    would solo; with ``seeds=None`` all ``replicas`` blocks start from
    the solo velocities verbatim.  ``kernel_tier`` picks the kernel
    suite and ``kernel_threads`` how many Python threads the compiled
    tier farms the R lanes of the mesh pass over — per-replica spread,
    FFT and gather; every other phase is single-threaded (``None``
    resolves through :func:`repro.kernels.get_suite`).  Both knobs are
    bitwise-invisible.

    Per-replica artifacts (energy records, trajectory frames,
    checkpoints) use the *solo* fingerprint and the solo formats, so
    they are byte-identical to a solo run's files and restore into a
    stock solo ``Simulation`` (:meth:`detach`).  Stepping, output
    cadences and the order writes reach disk belong to the one run loop
    (:mod:`repro.core.runloop`); this class supplies its per-lane surface.
    """

    #: Timer phase the run loop charges frame/checkpoint I/O to.
    io_phase = "ensemble_io"

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        dt: float = 2.5,
        replicas: int | None = None,
        seeds: list[int] | None = None,
        temperature: float | None = None,
        fixed_config: FixedPointConfig = FixedPointConfig(),
        thermostat: BerendsenThermostat | None = None,
        constraints: bool = True,
        kernel_tier: str | None = None,
        kernel_threads: int | None = None,
    ):
        if seeds is not None:
            if replicas is not None and replicas != len(seeds):
                raise ValueError("replicas does not match len(seeds)")
            replicas = len(seeds)
            if temperature is None and thermostat is not None:
                temperature = thermostat.temperature
            if temperature is None:
                raise ValueError("seeds need a temperature to draw velocities")
        if replicas is None or replicas < 1:
            raise ValueError("need replicas >= 1 (or an explicit seeds list)")

        self.solo_system = system
        self.params = params
        self.dt = float(dt)
        self.mode = "fixed"
        self.fixed_config = fixed_config
        self.replicas = int(replicas)
        self.n_solo = system.n_atoms
        self.seeds = list(seeds) if seeds is not None else None
        self.solo_thermostat = thermostat
        self.constraints_enabled = bool(constraints)
        self.kernels = get_suite(kernel_tier, kernel_threads)

        n = self.n_solo
        velocities = np.empty((self.replicas * n, 3))
        for r in range(self.replicas):
            if self.seeds is not None:
                rep = system.copy()
                rep.initialize_velocities(temperature, seed=self.seeds[r])
                velocities[r * n : (r + 1) * n] = rep.velocities
            else:
                velocities[r * n : (r + 1) * n] = system.velocities
        self.system = tile_system(system, self.replicas, velocities=velocities)

        self.calc = EnsembleForceCalculator(
            self.system, params, self.replicas, n, kernels=self.kernels
        )
        solver = None
        if constraints and system.topology.n_constraints:
            solver = EnsembleConstraintSolver(
                ConstraintSolver(system.topology, system.masses, system.box),
                self.replicas,
                n,
                kernels=self.kernels,
            )
        self.constraint_solver = solver
        ens_thermo = None
        if thermostat is not None:
            ens_thermo = EnsembleBerendsenThermostat(
                thermostat, self.replicas, n, system
            )
        self.provider = MTSForceProvider(
            self.calc, force_codec=fixed_config.force_codec()
        )
        self.integrator = FixedPointIntegrator(
            self.system,
            self.provider,
            dt,
            config=fixed_config,
            constraints=solver,
            thermostat=ens_thermo,
            timers=self.calc.timers,
        )
        # One fingerprint serves every replica: it hashes only the
        # static solo system, parameters, and datapath widths — never
        # positions/velocities — so it is verbatim what a solo run of
        # any replica embeds in its artifacts.
        self._solo_fingerprint = system_fingerprint(
            system, params, self.mode, self.dt, fixed_config
        )
        self.energy_logs: list[list[EnergyRecord]] = [
            [] for _ in range(self.replicas)
        ]

    # -- views ---------------------------------------------------------------

    def replica_slice(self, r: int) -> slice:
        if not 0 <= r < self.replicas:
            raise IndexError(f"replica {r} out of range (R={self.replicas})")
        return slice(r * self.n_solo, (r + 1) * self.n_solo)

    def state_codes(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Replica r's raw integer state (bitwise-comparison handle)."""
        sl = self.replica_slice(r)
        return self.integrator.X[sl].copy(), self.integrator.V[sl].copy()

    # -- energies ------------------------------------------------------------

    def record_energy(self) -> list[EnergyRecord]:
        """Append one solo-identical energy record per replica."""
        integ = self.integrator
        v = integ.velocities
        # One elementwise sum over the (R,) energy arrays in the solo key
        # order: lane r's float adds are the solo chain
        # ``float(sum(energies.values()))``.
        potential = sum(integ.last_info.energies.values())
        solo = self.solo_system
        recs = []
        for r in range(self.replicas):
            kinetic = solo.kinetic_energy(v[self.replica_slice(r)])
            rec = EnergyRecord(
                step=integ.step_count,
                time_fs=integ.step_count * self.dt,
                kinetic=kinetic,
                potential=float(potential[r]),
                temperature=solo.temperature_of(kinetic),
            )
            self.energy_logs[r].append(rec)
            recs.append(rec)
        return recs

    # -- artifacts -----------------------------------------------------------

    def replica_fingerprint(self) -> dict:
        """The solo fingerprint every replica's artifacts embed."""
        return self._solo_fingerprint

    def lane_state(self, r: int) -> dict:
        """Replica r's state codes; with them :meth:`replica_checkpoint`
        is byte-identical (through ``pack_state``) to what the same-seed
        solo run's :meth:`Simulation.checkpoint` yields at this step, and
        restorable by it (:meth:`detach`)."""
        X, V = self.state_codes(r)
        return {"X": X, "V": V}

    def detach(self, r: int):
        """Extract replica r as a live solo :class:`Simulation`.

        The solo simulation is built on a copy of the solo system, on
        this engine's kernel suite, and restored from the replica
        checkpoint, so it continues exactly the bits the batched run
        would have produced for this replica.
        """
        # core.simulation imports this module (solo is a view of the
        # engine); this is the one reference back, resolved when called.
        from repro.core.simulation import Simulation

        sim = Simulation(
            self.solo_system.copy(),
            self.params,
            dt=self.dt,
            mode=self.mode,
            fixed_config=self.fixed_config,
            thermostat=self.solo_thermostat,
            constraints=self.constraints_enabled,
            kernel_tier=self.kernels.tier,
            kernel_threads=self.kernels.threads,
        )
        sim.restore(self.replica_checkpoint(r))
        return sim

    def restore(self, states) -> None:
        """Resume all R replicas from solo-schema checkpoints.

        The inverse of :meth:`detach`: ``states[r]`` is what
        :meth:`replica_checkpoint` or a solo
        :meth:`Simulation.checkpoint` wrote for replica r.  All R must
        sit at one step and MTS phase of this run's identity (the solo
        fingerprint); anything else raises
        :class:`~repro.io.FingerprintMismatch` before any state is
        touched.  The force cache is rebuilt by rewinding the MTS counter
        and replaying the evaluation the original run performed at this
        state (same MTS phase), so every replica's next step is
        identical to what the original would have taken.  The buffered
        neighbor list needs no state in the checkpoint: its displacement
        trigger rebuilds it if the restored positions have drifted past
        ``skin/2`` from the list's reference configuration, and the pair
        set it yields is a pure function of the current positions
        either way.
        """
        states = list(states)
        if len(states) != self.replicas:
            raise FingerprintMismatch(
                f"got {len(states)} checkpoints for {self.replicas} replicas"
            )
        # One field-by-field comparison covers run identity, atom count
        # and the shared step / MTS phase.
        clock = ("step_count", "provider_calls")
        expect = {**self._solo_fingerprint, **{k: states[0].get(k) for k in clock}}
        for r, chk in enumerate(states):
            stored = {
                **(chk.get("fingerprint") or {}),
                "mode": chk.get("mode"),
                "dt": chk.get("dt"),
                "n_atoms": len(chk.get("X", ())),
                **{k: chk.get(k) for k in clock},
            }
            check_fingerprint(stored, expect, what=f"checkpoint {r}")
        integ = self.integrator
        X = integ.X.copy()  # X is replaced, never written in place
        for r, chk in enumerate(states):
            sl = self.replica_slice(r)
            X[sl] = chk["X"]
            integ.V[sl] = chk["V"]
        integ.X = X
        integ.step_count = int(states[0]["step_count"])
        self.provider.calls = int(states[0]["provider_calls"]) - 1
        integ._force_codes, integ.last_info = self.provider(integ.positions)

    restore_replicas = restore

    # -- stepping ------------------------------------------------------------

    def run(
        self,
        n_steps: int,
        record_every: int = 0,
        energy_writers=None,
        trajectories=None,
        trajectory_every: int = 0,
        checkpoint_stores=None,
        checkpoint_every: int = 0,
    ) -> list[list[EnergyRecord]]:
        """Advance all replicas ``n_steps``; per-replica record lists.

        A call into the one run loop (:func:`repro.core.runloop.run_loop`,
        which documents the cadences and the flush-then-checkpoint
        order).  The per-replica sequences ``energy_writers`` /
        ``trajectories`` / ``checkpoint_stores`` may be ``None`` or
        contain ``None`` entries to skip individual replicas.
        """
        return run_loop(
            self, n_steps, record_every, energy_writers, trajectories,
            trajectory_every, checkpoint_stores, checkpoint_every,
        )

    def profile(self) -> dict:
        """Hierarchical per-step phase profile of the batched engine.

        Rooted at the integrator's ``step`` phase; the batched force
        phases appear as ``ensemble_*`` children.  Same coverage /
        ``leaf_coverage`` attribution contract as the machine profile.
        """
        return self.calc.timers.profile("step", self.integrator.step_count)

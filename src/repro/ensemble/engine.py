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
fixed-point accumulation, one batched SHAKE/RATTLE sweep.

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
* float energy *reductions* are re-done per replica over contiguous
  slices whose length and values match the solo arrays exactly
  (NumPy's pairwise summation depends only on those), never with
  axis/``reduceat`` reductions whose grouping differs;
* the shared-skin neighbor list is bitwise harmless because the pair
  set is a pure function of the current configuration regardless of
  when the list was rebuilt.

Replicas are *detachable*: :meth:`EnsembleSimulation.detach` (or any
per-replica checkpoint) restores into a solo ``Simulation`` that
continues bit-for-bit.
"""

from __future__ import annotations

import math

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
from repro.ewald import self_energy
from repro.ewald.correction import _segment_sums, correction_forces_static
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
    block r+1's), matching the layout every per-replica energy
    segmentation in the force calculator assumes.  ``velocities``
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

    Runs the same physics as :class:`ForceCalculator` on the tiled
    system through one kernel pass per phase, but reports every energy
    as an ``(R,)`` per-replica array whose entries are bitwise equal to
    the solo scalars.  Phases are charged to ``ensemble_*`` timers so
    the hierarchical profile attributes batched work separately.
    """

    _pair_phase_prefix = "ensemble_"
    _quantize_phase = "ensemble_range_limited"
    _deposit_phase = "ensemble_deposit"

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
        super().__init__(system, params, kernels=kernels)
        self.replicas = int(replicas)
        self.n_solo = int(n_solo)
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
        # The tiled ``_e_self`` is the R-fold total; each replica's
        # self energy is the solo scalar.
        self._e_self_solo = self_energy(system.charges[:n_solo], self.sigma)
        # Pair-index boundaries between replica blocks (ascending i).
        self._bounds = np.arange(1, replicas, dtype=np.int64) * np.int64(n_solo)

    # -- per-replica reductions --------------------------------------------

    def _pair_segment_sums(self, keys_i: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-replica sums of per-pair values split on the owner index.

        The canonical pair order sorts on ``i*(R*N) + j`` so ``keys_i``
        ascends; replica r's pairs form one contiguous slice whose
        values and order equal the solo pair list's, making each
        ``float(np.sum(slice))`` bitwise the solo total.
        """
        cuts = np.searchsorted(keys_i, self._bounds)
        out = np.empty(self.replicas)
        lo = 0
        for r, hi in enumerate([*cuts.tolist(), len(values)]):
            out[r] = float(np.sum(values[lo:hi]))
            lo = hi
        return out

    # -- long range ---------------------------------------------------------

    def _kspace_stack(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-replica k-space energies and stacked mesh forces: the one
        mesh pass with replicas as its lanes, each bitwise its solo evaluation."""
        return self.gse.mesh_pass(
            positions, self.system.charges[: self.n_solo], lanes=self.replicas,
            codec=self.mesh_codec, kernels=self.kernels, plan=self._mesh_plan,
            timers=self.timers,
        )

    def compute_long_fixed(self, positions: np.ndarray, force_codec):
        """Long-range codes with per-replica ``(R,)`` energies."""
        R = self.replicas
        acc = self._accumulator("long", force_codec)
        with self.timers.time("ensemble_correction"):
            corr = correction_forces_static(
                positions, self.system.box, self._corr_static, self.sigma,
                replicas=R,
            )
        with self.timers.time("ensemble_deposit"):
            ccodes = force_codec.quantize_round_only(corr.force)
            self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)
        e_k = np.zeros(R)
        if self.gse is not None:
            with self.timers.time("ensemble_kspace"):
                e_k, f_k = self._kspace_stack(positions)
            with self.timers.time("ensemble_deposit"):
                acc.deposit_dense(force_codec.quantize_round_only(f_k))
        energies = {
            "correction": corr.energy_exclusion + corr.energy_14_coul,
            "lj14": corr.energy_14_lj,
            "coulomb_kspace": e_k,
            "coulomb_self": np.full(R, self._e_self_solo),
        }
        return acc.raw(), energies

    def compute_fixed(
        self, positions: np.ndarray, force_codec, include_long_range: bool = True
    ) -> tuple[np.ndarray, ForceReport]:
        """Batched fixed-point forces with per-replica energy arrays.

        Identical deposits to the solo path (order-invariant integer
        sums over the same contributions), with each energy re-summed
        per replica block.  Energy keys are inserted in the exact solo
        order so per-replica ``sum(energies.values())`` reproduces the
        solo left-to-right float additions.
        """
        acc = self._accumulator("short", force_codec)
        energies: dict[str, np.ndarray] = {}

        nb = self._deposit_range_limited(positions, force_codec, acc)
        with self.timers.time("ensemble_energies"):
            energies["lj"] = self._pair_segment_sums(nb.i, nb.e_lj_pairs)
            energies["coulomb_real"] = self._pair_segment_sums(nb.i, nb.e_coul_pairs)

        bonded = self._bonded(positions)
        with self.timers.time("ensemble_deposit"):
            for contrib in bonded:
                if contrib.n_terms:
                    c = force_codec.quantize_round_only(contrib.force)
                    self.kernels.scatter_rows(
                        acc.raw(), contrib.idx.ravel(), c.reshape(-1, 3)
                    )
        with self.timers.time("ensemble_energies"):
            energies["bond"] = _segment_sums(bonded[0].energy_terms, self.replicas)
            energies["angle"] = _segment_sums(bonded[1].energy_terms, self.replicas)
            energies["dihedral"] = _segment_sums(bonded[2].energy_terms, self.replicas)

        if include_long_range:
            long_codes, long_energies = self.compute_long_fixed(positions, force_codec)
            with self.timers.time("ensemble_deposit"):
                acc.deposit_dense(long_codes)
            energies.update(long_energies)

        with self.timers.time("ensemble_collect"):
            total = acc.total()
            total = self._spread_vsite_codes(total)
            report = ForceReport(
                forces=force_codec.reconstruct(total),
                energies=energies,
                n_pairs=nb.n_pairs,
            )
        return total, report


# -- constraints -----------------------------------------------------------


class EnsembleConstraintSolver:
    """SHAKE/RATTLE over R replica blocks in one batched dispatch.

    Wraps ONE solo :class:`ConstraintSolver` (the constraint topology
    is identical in every block) and dispatches through the kernel
    suite (the NumPy one by default): the compiled tier sweeps all
    replicas in a single C call that runs the solo kernel per block —
    bitwise the solo solve, including each block's own convergence exit
    (a converged replica must not absorb extra sweeps, which would
    change bits).
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
        if not self.solo.n_constraints:
            return positions
        return self.kernels.shake_batch(
            self.solo, positions, reference, float(tol), self.replicas, self.n_solo
        )

    def rattle(self, velocities: np.ndarray, positions: np.ndarray, tol: float = 1e-12):
        if not self.solo.n_constraints:
            return velocities
        return self.kernels.rattle_batch(
            self.solo, velocities, positions, float(tol), self.replicas, self.n_solo
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
    the same ``math.sqrt``/``min``/``max`` scalar chain the solo
    thermostat uses, then broadcasts ``(R,) -> (R*N, 1)`` so the
    integrator applies one vectorized velocity scale.  A replica at
    exactly ``lam == 1.0`` is untouched (the integrator's round-trip
    through float64 is exact for 40-bit codes).
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
            if t_now <= 0:
                lams[r] = 1.0
                continue
            arg = 1.0 + (integrator.dt / self.solo.tau) * (
                self.solo.temperature / t_now - 1.0
            )
            lam = math.sqrt(max(arg, 0.0))
            lams[r] = min(max(lam, 1.0 - self.solo.clamp), 1.0 + self.solo.clamp)
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
    FFT and gather; every other phase is single-threaded (defaults:
    the ``REPRO_KERNEL_TIER`` / ``REPRO_KERNEL_THREADS`` environment
    resolution).  Both knobs are bitwise-invisible.

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
        energies = integ.last_info.energies
        recs = []
        for r in range(self.replicas):
            vr = v[self.replica_slice(r)]
            # Left-to-right float additions over the solo key order —
            # the same chain ``float(sum(energies.values()))`` runs solo.
            pe = float(sum(float(np.asarray(val)[r]) for val in energies.values()))
            rec = EnergyRecord(
                step=integ.step_count,
                time_fs=integ.step_count * self.dt,
                kinetic=self.solo_system.kinetic_energy(vr),
                potential=pe,
                temperature=self.solo_system.temperature(vr),
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
        for r, chk in enumerate(states):
            sl = self.replica_slice(r)
            integ.X[sl] = chk["X"]
            integ.V[sl] = chk["V"]
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

"""The functional Anton machine simulation.

:class:`AntonMachine` executes real MD time steps the way the hardware
does: atoms live on home nodes of a torus, every force contribution is
computed on the node the NT method assigns it to, quantized once, and
integer-accumulated; mesh charges accumulate in fixed point; the FFT
is logically distributed; positions/forces/bond-destinations/migration
traffic is charged to a simulated network.

Because integer addition commutes, the per-node deposit order cannot
change the force bits — which is exactly the paper's *parallel
invariance*: "a given simulation will evolve in exactly the same way
on any single- or multi-node Anton configuration" (Section 4).  The
integration tests run the same system on 1, 8, and 64 simulated nodes
and compare trajectories bit-for-bit.

The same invariance also frees the *simulator* to choose how it
executes each phase: :mod:`repro.machine.backends` provides the array
kernels every run uses (``vectorized``); the per-node loops they
replaced live on as the test oracle (``tests/serial_backend.py``, a
:class:`~repro.machine.backends.MachineBackend` instance passed as
``backend=``), both producing identical state codes.
Engine phases are charged to ``machine_*`` timers
(``calc.timers``, :meth:`AntonMachine.profile`).

Stepping, output cadences and the flush-then-checkpoint order belong
to the one run loop (:mod:`repro.core.runloop`): the machine is its
one-lane engine and hands it the :class:`~repro.fault.FaultController`
as the step bracket.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import ConstraintSolver
from repro.core.forces import ForceCalculator, ForceReport, MDParams, MTSForceProvider
from repro.core.integrator import FixedPointConfig, FixedPointIntegrator
from repro.core.runloop import LaneEngine, run_loop
from repro.core.system import ChemicalSystem
from repro.fault import FaultController, FaultSchedule, FaultyNetwork, RecoveryPolicy
from repro.fft import DistributedFFT3D
from repro.io import TrajectoryWriter, check_fingerprint, system_fingerprint
from repro.kernels import get_suite
from repro.machine.backends import MachineBackend, VectorizedBackend
from repro.machine.config import ANTON_2008, AntonHardware
from repro.machine.flexible import assign_bond_terms, correction_pairs_per_node
from repro.network import LinkRouter, RoutedConfig
from repro.parallel import (
    MigrationSchedule,
    SimNetwork,
    SpatialDecomposition,
    TorusTopology,
)

__all__ = ["MachineForceCalculator", "AntonMachine"]


class MachineForceCalculator(ForceCalculator):
    """A ForceCalculator that deposits every contribution per node.

    Produces bit-identical force codes to the base class (integer sums
    commute) while exercising the machine's work partitioning and
    charging communication to the simulated network.  *How* each phase
    executes is delegated to a :class:`~repro.machine.backends.MachineBackend`.
    """

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams,
        machine: "AntonMachine",
        backend: MachineBackend,
    ):
        # The machine's suite runs the whole force path (pair kernel,
        # neighbor list, deposits) and, once bound, the backend.
        super().__init__(system, params, kernels=machine.kernels)
        self.machine = machine
        self.backend = backend
        backend.bind(self)

    # -- overridden force paths ---------------------------------------------

    def compute_fixed(self, positions, force_codec, include_long_range: bool = True):
        m = self.machine
        acc = self._accumulator("short", force_codec)

        # Range-limited pairs: computed on their NT nodes.
        nb, export = self.backend.range_limited(self, positions, force_codec, acc)
        m.account_force_export(export)

        # Bond terms on their statically assigned geometry cores.
        bonded = self._bonded(positions)
        with self.timers.time("machine_deposit"):
            bonded_codes = self.backend.deposit_bonded(self, acc, bonded, force_codec)

        long_energies = {}
        if include_long_range:
            long_codes, long_energies = self.compute_long_fixed(positions, force_codec)
            acc.deposit_dense(long_codes)

        # Final assembly (accumulator readout, virtual-site spreading,
        # float reconstruction, energy decode) is charged to its own
        # leaf phase so the profiler's attribution stays tight.
        with self.timers.time("machine_collect"):
            total = self._spread_vsite_codes(acc.total())
            energies = self._decode({**self._pair_codes(nb), **bonded_codes})
            report = ForceReport(
                forces=force_codec.reconstruct(total),
                energies={**energies, **long_energies},
                n_pairs=nb.n_pairs,
            )
        return total, report

    def compute_long_fixed(self, positions, force_codec):
        acc = self._accumulator("long", force_codec)

        # Correction pairs on their owners' correction pipelines.
        corr = self._corrections(positions)
        ccodes = self._correction_force_codes(corr, force_codec)
        with self.timers.time("machine_deposit"):
            corr_codes = self.backend.deposit_corrections(self, acc, corr, ccodes)

        e_k = 0.0
        if self.gse is not None:
            with self.timers.time("machine_mesh"):
                e_k = self.backend.mesh_long_range(self, positions, acc, force_codec)
        return acc.raw(), self._long_energies(corr_codes, e_k)


class AntonMachine(LaneEngine):
    """A simulated n-node Anton machine running one chemical system.

    Parameters
    ----------
    n_nodes:
        Power-of-two node count (1 to 32768; the paper's flagship is
        512).  Functional results are bitwise independent of this.
    subbox_divisions:
        Subboxes per home box per axis for NT match efficiency.
    migration_interval:
        Steps between migration passes (paper: 4-8).
    backend:
        Execution strategy: ``"vectorized"`` (default) or a
        :class:`~repro.machine.backends.MachineBackend` instance (the
        differential tests pass their per-node reference loops).
        State codes are bitwise identical across them.
    kernel_tier:
        Hot-loop implementation suite: ``"numpy"`` or ``"compiled"``
        (lazily built C via :mod:`repro.kernels`, falling back to numpy
        without a compiler).  Resolved once, with ``kernel_threads``, by
        :func:`repro.kernels.get_suite` (``None``: its environment and
        default resolution) into ``kernels`` — the suite the force path,
        backend and constraint solver all run on.  Bitwise identical
        across tiers, so it never appears in fingerprints.
    kernel_threads:
        Width of the compiled tier's farm over the lanes of a stacked
        mesh pass (``None``: :func:`~repro.kernels.get_suite`'s
        resolution, default 1).  The machine steps one system — one
        lane — so it runs single-threaded at every value; the knob is
        accepted, reported in :meth:`profile`, and bitwise-invisible
        like the tier knob.
    faults:
        Optional fault injection: a :class:`~repro.fault.FaultSchedule`,
        a rates dict, or a ``--faults``-style spec string (e.g.
        ``"drop=1e-3,crash=1"``).  Faults are injected, detected, and
        healed inside :meth:`run`; by construction (and by the chaos
        tests) the recovered trajectory is bit-identical to a fault-free
        run.
    fault_seed:
        Hash key for rate-driven fault schedules (ignored when
        ``faults`` is already a :class:`~repro.fault.FaultSchedule`).
    recovery:
        Optional :class:`~repro.fault.RecoveryPolicy` overriding the
        default retry/backoff/snapshot knobs.
    routed:
        Enable the routed network fabric: every charged message is also
        expanded into dimension-ordered per-link traversals
        (:class:`repro.network.LinkRouter`), feeding
        :meth:`network_report` and ``profile()["network"]``.  Pass a
        :class:`repro.network.RoutedConfig` to set multicast mode or
        delta compression.  Accounting only — trajectories, checkpoints,
        and the flat traffic counters are bitwise unchanged.
    """

    def __init__(
        self,
        system: ChemicalSystem,
        params: MDParams = MDParams(),
        n_nodes: int = 8,
        dt: float = 2.5,
        fixed_config: FixedPointConfig = FixedPointConfig(),
        subbox_divisions: int = 1,
        migration_interval: int = 4,
        bond_reassign_interval: int = 100_000,
        thermostat=None,
        constraints: bool = True,
        hw: AntonHardware = ANTON_2008,
        backend="vectorized",
        kernel_tier: str | None = None,
        kernel_threads: int | None = None,
        faults=None,
        fault_seed: int = 0,
        recovery: RecoveryPolicy | None = None,
        routed=False,
    ):
        self.system = self.solo_system = system
        self.params = params
        self.hw = hw
        self.dt = float(dt)
        self.fixed_config = fixed_config
        self.topology = TorusTopology.for_node_count(n_nodes)
        if faults is not None and not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(seed=fault_seed, rates=faults)
        self.fault_schedule = faults
        self.network = (
            FaultyNetwork(self.topology) if faults is not None else SimNetwork(self.topology)
        )
        self.router = None
        if routed:
            config = routed if isinstance(routed, RoutedConfig) else None
            self.router = LinkRouter(self.topology, config, hw)
            self.network.attach_router(self.router)
        self.decomp = SpatialDecomposition(system.box, self.topology, subbox_divisions)
        #: The last configuration whose home boxes were looked up, and their ids.
        self._home = (None, None)
        self.migration = MigrationSchedule(
            self.decomp, system.topology, interval=migration_interval
        )
        self.bond_reassign_interval = int(bond_reassign_interval)
        self.owners = self.migration.initialize(system.positions)
        self.bond_assignment = assign_bond_terms(system.topology, self.owners, hw)
        self.correction_lists = correction_pairs_per_node(system.exclusions, self.owners)
        self.dfft = None
        if all(mm % d == 0 for mm, d in zip(params.mesh, self.topology.dims)):
            self.dfft = DistributedFFT3D(params.mesh, self.topology, self.network)
        if backend == "vectorized":
            backend = VectorizedBackend()
        elif not isinstance(backend, MachineBackend):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'vectorized' or a MachineBackend"
            )
        self.kernels = get_suite(kernel_tier, kernel_threads)
        self.backend = backend
        self.calc = MachineForceCalculator(system, params, self, self.backend)
        self.provider = MTSForceProvider(self.calc, force_codec=fixed_config.force_codec())
        solver = None
        if constraints and system.topology.n_constraints:
            solver = ConstraintSolver(
                system.topology, system.masses, system.box, kernels=self.kernels
            )
        self.integrator = FixedPointIntegrator(
            system,
            self.provider,
            dt,
            config=fixed_config,
            constraints=solver,
            thermostat=thermostat,
            timers=self.calc.timers,
        )
        #: Step count at which the per-step reports' window opened.
        self._report_origin = 0
        self.fault_controller = None
        if faults is not None:
            self.fault_controller = FaultController(
                faults, policy=recovery, timers=self.calc.timers
            )

    def close(self) -> None:
        """End-of-life hook for callers; no backend holds resources now."""

    # -- traffic accounting -------------------------------------------------

    def home_nodes(self, positions: np.ndarray, wrapped: np.ndarray | None = None) -> np.ndarray:
        """Home-box ids of ``positions`` (``wrapped``: the same, already
        wrapped), looked up once per configuration.

        A step's force evaluation looks them up to tag its pair walk; the
        step's migration and the next step's position import see the
        same configuration — the integrator hands out one read-only
        decoded array per ``X`` — and reuse them.  Only arrays that own
        their data and are read-only are remembered, so no caller can
        change a configuration under its ids.
        """
        src, nodes = self._home
        if src is not positions:
            if wrapped is not None:
                nodes = self.decomp.node_of_wrapped(wrapped)
            else:
                nodes = self.decomp.node_of(positions)
            if not positions.flags.writeable and positions.base is None:
                self._home = (positions, nodes)
        return nodes

    def _node_occupancy(self) -> np.ndarray:
        """Atoms per home box at the current positions (by box id)."""
        return np.bincount(
            self.home_nodes(self.integrator.positions), minlength=self.topology.n_nodes
        )

    def account_position_import(self) -> None:
        """Charge the NT position import: whole remote boxes of each
        node's tower and plate, one multicast message per remote box,
        plus bond-destination position sends."""
        with self.calc.timers.time("machine_traffic"):
            self.backend.account_position_import(self)
            # Bond destinations: atoms' positions sent to remote term
            # nodes.  Charged as aggregate volume (sources and
            # destinations are adjacent by construction) with no hop
            # weighting, so it deliberately bypasses the router — the
            # per-link sums stay an exact decomposition of hop_bytes.
            n_msgs = self.bond_assignment.destination_messages(self.owners)
            if n_msgs:
                stats = self.network.stats
                stats.messages += n_msgs
                stats.bytes += n_msgs * self.hw.bytes_per_position
                stats.charge_tag(
                    "bond_destinations", n_msgs, n_msgs * self.hw.bytes_per_position
                )

    def account_force_export(self, export) -> None:
        """Charge force returns from computing nodes to atom owners.

        One message per (computing node, owner) route per step, sized by
        the exact count of exported per-atom force sums on that route.
        ``export`` is what the backend's ``range_limited`` returned.
        """
        with self.calc.timers.time("machine_traffic"):
            self.backend.account_force_export(self, export)

    def account_fft(self) -> None:
        """Charge forward + inverse FFT redistributions."""
        if self.dfft is not None:
            self.dfft.charge_solve()

    def account_migration(self, n_migrated: int) -> None:
        # Aggregate volume with no routes or hop weighting (migrating
        # atoms move to an adjacent box); bypasses the router like the
        # bond-destination charge above.
        self.network.stats.messages += n_migrated
        self.network.stats.bytes += n_migrated * 64
        self.network.stats.charge_tag("migration", n_migrated, n_migrated * 64)

    # -- running ------------------------------------------------------------

    def reassign_bond_terms(self) -> None:
        """Recompute the static bond-term placement from current owners.

        "To ensure that the bond destinations for each atom remain on
        nodes close to the atom's home node as the chemical system
        evolves, we recompute the assignment of bond terms to GCs
        roughly every 100,000 time steps" (Section 3.2.3).  Placement
        affects only communication, never the force bits.
        """
        self.bond_assignment = assign_bond_terms(self.system.topology, self.owners, self.hw)
        self.correction_lists = correction_pairs_per_node(self.system.exclusions, self.owners)

    def advance(self) -> None:
        """One machine time step (the run loop's step).

        Recorded as a ``machine_step`` phase whose children (position
        import, the integrator's ``step`` subtree, migration, bond
        reassignment) cover essentially all of the wall time — the
        basis of :meth:`profile`.
        """
        t = self.calc.timers
        with t.time("machine_step"):
            with t.time("import"):
                self.account_position_import()
            self.integrator.step()
            with t.time("migration"):
                pos = self.integrator.positions
                event = self.migration.step(pos, self.home_nodes(pos))
                if event is not None:
                    self.account_migration(event.n_migrated)
                    self.owners = self.migration.owners
            if self.integrator.step_count % self.bond_reassign_interval == 0:
                with t.time("bond_reassign"):
                    self.reassign_bond_terms()

    def step(self, n: int = 1) -> None:
        """Advance n machine time steps: no output, no fault bracket."""
        run_loop(self, n)

    def run(
        self,
        n_steps: int,
        trajectory: TrajectoryWriter | None = None,
        trajectory_every: int = 0,
        checkpoint_store=None,
        checkpoint_every: int = 0,
    ) -> None:
        """Advance ``n_steps`` with durable-store hooks.

        One call into the run loop (:func:`repro.core.runloop.run_loop`,
        which documents the global-step cadences and the
        flush-then-checkpoint order).  I/O time is charged to the
        ``machine_io`` timer (it is not part of a machine step).

        With fault injection armed (``faults=`` at construction) the
        :class:`~repro.fault.FaultController` is the loop's step
        bracket: the wire ledger records the step's traffic, the
        barrier audit detects and retries message faults, and a node
        crash rolls the machine back to the newest valid checkpoint —
        ``checkpoint_store`` when given, else the controller's
        in-memory snapshot ring — and replays deterministically.
        Replayed steps charge their traffic to the network's recovery
        pool and skip store writes that already happened, so both the
        primary traffic statistics and the on-disk artifacts of a
        healed run are exactly a clean run's.
        """
        fc = self.fault_controller
        if fc is not None:
            fc.start_run(self, n_steps, checkpoint_store)
        run_loop(
            self, n_steps, trajectories=[trajectory], trajectory_every=trajectory_every,
            checkpoint_stores=[checkpoint_store], checkpoint_every=checkpoint_every,
            bracket=fc,
        )

    # -- checkpointing -------------------------------------------------------

    def fingerprint(self) -> dict:
        """Run identity embedded in checkpoints/trajectories.

        Node count, backend, and migration cadence are deliberately
        absent: by parallel invariance they influence only traffic,
        never the trajectory bits, so snapshots restore across any
        machine configuration.
        """
        return system_fingerprint(
            self.system, self.params, "machine", self.dt, self.fixed_config
        )

    def checkpoint(self) -> dict:
        """Snapshot of the exact machine state (integer codes).

        Everything that influences future bits or traffic: integrator
        state codes and step count, the MTS call counter, atom
        ownership, and the migration clock.
        """
        X, V = self.integrator.state_codes()
        return {
            "X": X,
            "V": V,
            "step_count": self.integrator.step_count,
            "provider_calls": self.provider.calls,
            "owners": self.owners.copy(),
            "steps_since_migration": self.migration.steps_since_migration,
            "migration_step": self.migration._step,
            "n_nodes": self.topology.n_nodes,
            "fingerprint": self.fingerprint(),
        }

    def restore(self, chk: dict) -> None:
        """Resume bit-exactly from a :meth:`checkpoint` snapshot.

        Works across machines and backends: state codes are integer,
        ownership-derived placement affects only traffic, and replaying
        the force evaluation with the rewound MTS counter reproduces
        the same long-range schedule decision — so the continued
        trajectory is bitwise the uninterrupted one.
        """
        stored = chk.get("fingerprint")
        if stored is not None:
            check_fingerprint(stored, self.fingerprint(), what="checkpoint")
        integ = self.integrator
        integ.X = chk["X"].copy()
        integ.V = chk["V"].copy()
        integ.step_count = int(chk["step_count"])
        if int(chk.get("n_nodes", self.topology.n_nodes)) == self.topology.n_nodes:
            self.owners = chk["owners"].copy()
        else:
            # Snapshot from a different machine configuration: its
            # ownership map indexes another torus.  Reassign from the
            # restored positions — placement affects only traffic,
            # never the trajectory bits.
            self.owners = self.migration.initialize(integ.positions)
        self.migration.owners = self.owners
        self.migration.steps_since_migration = int(chk["steps_since_migration"])
        self.migration._step = int(chk["migration_step"])
        self.reassign_bond_terms()
        self.provider.calls = int(chk["provider_calls"]) - 1
        integ._force_codes, integ.last_info = self.provider(integ.positions)

    # -- the run loop's one-lane surface (LaneEngine does the rest) ------------

    io_phase = "machine_io"
    replica_fingerprint = fingerprint
    open_trajectory = LaneEngine.open_replica_trajectory
    append_trajectory = LaneEngine.append_replica_trajectory
    write_frame = LaneEngine.write_replica_frame

    def lane_state(self, r: int) -> dict:
        X, V = self.integrator.state_codes()
        return {"X": X, "V": V}

    def replica_checkpoint(self, r: int = 0) -> dict:
        return self.checkpoint()

    def restore_replicas(self, states) -> None:
        """Resume a session (:class:`~repro.io.RunSession`) and open a fresh
        reporting window: traffic counters and the step origin of the
        per-step reports restart, so a resumed process reports the steps
        *it* advanced (construction and the restore's force replay
        belong to none).  A fault rollback goes through :meth:`restore`
        alone and keeps the window: its counters equal a clean run's.
        """
        (state,) = states
        self.restore(state)
        self.network.reset_stats()
        if self.router is not None:
            self.router.reset()
        self._report_origin = self.integrator.step_count

    def _steps_reported(self) -> int:
        """Steps advanced in the reporting window (at least 1, as a divisor)."""
        return max(self.integrator.step_count - self._report_origin, 1)

    # -- observability -------------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        return self.integrator.positions

    def state_codes(self):
        return self.integrator.state_codes()

    def traffic_summary(self) -> dict[str, tuple[int, int]]:
        """(messages, bytes) per traffic class in the reporting window.

        Primary traffic only: retransmissions and rollback-replay
        traffic live in :meth:`recovery_traffic_summary`, so these
        numbers match a fault-free run exactly (the Table 3 contract).
        """
        stats = self.network.stats
        if isinstance(self.network, FaultyNetwork):
            stats = self.network.primary_stats
        return dict(stats.by_tag)

    def recovery_traffic_summary(self) -> dict[str, tuple[int, int]]:
        """(messages, bytes) per traffic class of fault-recovery traffic:
        retransmissions plus replayed steps (``{}`` without faults)."""
        if not isinstance(self.network, FaultyNetwork):
            return {}
        return dict(self.network.recovery_stats.by_tag)

    def network_report(self) -> dict:
        """Routed-fabric occupancy and congestion, per step so far.

        Requires ``routed=True`` at construction.  Per-phase critical
        links, multicast/compression savings, and the congested
        communication time (see :meth:`repro.network.LinkRouter.report`),
        plus the link bytes of the fault layer's recovery pool.
        """
        if self.router is None:
            raise ValueError("machine was built without routed=True")
        report = self.router.report(steps=self._steps_reported())
        report["recovery_link_bytes"] = (
            self.network.recovery_router.primary.total_bytes()
            if isinstance(self.network, FaultyNetwork)
            else 0
        )
        return report

    def fault_report(self) -> dict[str, int]:
        """Fault/retry/rollback counters (empty without injection)."""
        if self.fault_controller is None:
            return {}
        return self.fault_controller.report()

    def messages_per_node_per_step(self) -> float:
        return self.network.stats.messages / (self._steps_reported() * self.topology.n_nodes)

    def profile(self) -> dict:
        """Hierarchical per-step phase profile (the ``--profile`` dump).

        Returns per-step seconds for every phase recorded under the
        ``machine_step`` umbrella, nested exactly as the phases ran
        (``step -> force -> machine_mesh -> mesh_spread``...), plus two
        attribution ratios: ``coverage``, the fraction of the measured
        step wall time accounted for by its top-level children, and the
        stricter ``leaf_coverage``, the fraction attributed all the way
        down to *named leaf phases* — time inside a parent phase but in
        none of its children counts as unattributed, so this is the
        number that exposes hidden per-step bookkeeping.
        """
        out = self.calc.timers.profile("machine_step", self._steps_reported())
        out["kernel_tier"] = self.kernels.tier
        out["kernel_threads"] = self.kernels.threads
        if self.router is not None:
            out["network"] = self.network_report()
        if self.fault_controller is not None:
            out["faults"] = self.fault_report()
            out["recovery_traffic"] = {
                k: list(v) for k, v in self.recovery_traffic_summary().items()
            }
        return out

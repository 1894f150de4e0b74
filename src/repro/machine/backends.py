"""Execution backends for the functional machine simulation.

A :class:`MachineBackend` runs the per-node work of a machine time
step.  One ships:

* :class:`VectorizedBackend` — what every run uses: each phase's
  contributions deposited by single array kernels, owner grouping
  collapsed (integer accumulation commutes, so grouping cannot change
  the bits), cached import routes, and force-export traffic counted
  per route from the pair walk's per-atom home-box sets.

The literal per-node Python loops the array kernels replaced —
deposits grouped node by node, GSE spreading and interpolation called
once per owning node, traffic charged one ``send`` at a time — are the
oracle the differential tests and the scaling benchmark compare
against, and live with them: ``tests/serial_backend.py``, passed as
``AntonMachine(backend=SerialBackend())``.

Both produce bitwise-identical ``state_codes()`` trajectories and
identical reported energies: every force contribution and every
energy term is quantized once and integer-accumulated, so *where* and
*in what order* contributions are summed is invisible — the paper's
parallel-invariance argument (Section 4) applied to the simulator's
own execution strategy.

Backends also charge their engine phases to ``machine_*`` timers
(``machine_nt_assign``, ``machine_deposit``, ``machine_mesh``,
``machine_traffic``) on the calculator's
:class:`~repro.perf.timers.Timers`.  The mesh has no loop here: the
vectorized backend's ``mesh_long_range`` is one lane of
:meth:`~repro.ewald.GaussianSplitEwald.mesh_pass` — the pass the float
path and the ensemble run — which charges ``mesh_plan`` /
``mesh_spread`` / ``mesh_unquantize`` / ``mesh_fft`` / ``mesh_interp``
(and, through its ``before_solve`` hook, ``mesh_fft_traffic``) nested
inside ``machine_mesh`` — the breakdown ``repro machine --profile`` and
the scaling benchmark report.  With tabulated kernels
the range-limited pair deposit happens inside the suite's pair walk and
is charged to ``range_limited``; ``machine_deposit`` then holds the
bonded and correction deposits only.
"""

from __future__ import annotations

import numpy as np

from repro.parallel import (
    export_route_counts,
    nt_box_pairs,
    nt_node_tables,
    set_members,
    tower_plate_boxes,
)

__all__ = ["MachineBackend", "VectorizedBackend"]

#: Largest box-pair count tabulated by the vectorized NT lookup; above
#: this (> 2048 nodes) the rule is applied to the home-box set members.
_NT_TABLE_MAX_ENTRIES = 4 << 20


class MachineBackend:
    """Strategy interface for one machine step's per-node execution.

    A backend runs on the kernel suite (:mod:`repro.kernels`) of the
    calculator it is bound to — the one :class:`~repro.machine.AntonMachine`
    resolved from its ``kernel_tier`` / ``kernel_threads`` — and keeps
    it as ``kernels``.  Every suite is bitwise identical, so the suite
    composes freely with every backend and with fault-recovery replay.
    """

    name = "base"

    def bind(self, calc) -> None:
        """Attach to a MachineForceCalculator (called once by it)."""
        self.calc = calc
        self.kernels = calc.kernels

    # -- force deposit phases -------------------------------------------

    def range_limited(self, calc, codes, force_codec, acc, energies):
        """Compute + deposit range-limited pair forces at ``codes``; return (nb, export).

        ``export`` is the backend's own record of the step's NT
        assignment, handed back to :meth:`account_force_export`.
        ``energies=False`` allows a force-only walk (``nb`` then has no
        energy rows).
        """
        raise NotImplementedError

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> dict:
        """Deposit the bonded terms' force codes; return their energy
        codes per kind (``calc._bonded_codes``'s keys and integers)."""
        raise NotImplementedError

    def deposit_corrections(self, calc, acc, corr, ccodes) -> dict:
        """Deposit the correction pairs' force codes; return their energy
        codes (``calc._correction_codes``'s keys and integers)."""
        raise NotImplementedError

    def mesh_long_range(self, calc, codes, acc, force_codec) -> float:
        """Spread/solve/interpolate the GSE mesh at ``codes``; returns the k-space energy."""
        raise NotImplementedError

    # -- traffic accounting ---------------------------------------------

    def account_position_import(self, machine) -> None:
        raise NotImplementedError

    def account_force_export(self, machine, export) -> None:
        raise NotImplementedError


class VectorizedBackend(MachineBackend):
    """Segmented group-by execution: one array kernel per phase.

    Owner/node grouping is dropped wherever integer accumulation makes
    it unobservable, the NT assignment is read from the home-box sets
    the pair walk builds (tagged with the home boxes of its own codes),
    the GSE mesh is one lane of the shared
    mesh pass, and traffic is charged
    through :meth:`~repro.parallel.comm.SimNetwork.send_batch` with
    routes computed by array ops (position-import routes are static per
    machine and cached).  Bitwise identical to the serial test oracle.
    """

    name = "vectorized"

    def bind(self, calc) -> None:
        super().bind(calc)
        self._import_routes: tuple[np.ndarray, np.ndarray] | None = None
        self._nt_table: np.ndarray | None = None
        #: The home-box ids the last walk was tagged with, its
        #: ``(2, n_atoms, words)`` home-box sets and the per-side route
        #: counts, all reused across steps.
        self._home: np.ndarray | None = None
        self._sets: np.ndarray | None = None
        self._routes: np.ndarray | None = None
        calc.walk_tags = self._walk_tags

    def _walk_tags(self, codes) -> tuple[np.ndarray, np.ndarray]:
        """The pair walk's hook: home-box ids of the walk's own codes, and
        the sets it ORs them into (row side, column side)."""
        m = self.calc.machine
        self._home = m.decomp.node_of_codes(codes)
        if self._sets is None:
            n = m.topology.n_nodes
            words = -(-n // 64)
            self._sets = np.zeros((2, len(codes), words), dtype=np.uint64)
            self._routes = np.zeros((2, n * n), dtype=np.int64)
        return self._home, self._sets

    def _nt_routes(self, m) -> np.ndarray:
        """The step's NT force export as per-side route counts.

        The computing node is a pure function of the two home-box ids
        (see :func:`~repro.parallel.nt.nt_node_tables`), so the walk's
        per-atom home-box sets decide every (atom, node) mark: one
        kernel pass expands them through the tabulated rule and counts
        the marks per route (``rk_nt_routes``).  Above
        :data:`_NT_TABLE_MAX_ENTRIES` the rule is applied to the set
        members directly (:func:`~repro.parallel.nt.nt_box_pairs`).  The
        node depends on the atoms' *current* home boxes and the sets on
        this step's cutoff test, so the routes are per step, not per
        rebuild.
        """
        n = m.topology.n_nodes
        if n * n > _NT_TABLE_MAX_ENTRIES:
            for side, (sets, out) in enumerate(zip(self._sets, self._routes)):
                atoms, boxes = set_members(sets)
                pair = (boxes, self._home[atoms]) if side else (self._home[atoms], boxes)
                export_route_counts(atoms, nt_box_pairs(m.decomp, *pair).node, m.owners, n, out)
            return self._routes
        if self._nt_table is None:
            self._nt_table = np.ascontiguousarray(nt_node_tables(m.decomp)[0])
        self.kernels.nt_routes(self._sets, self._home, self._nt_table, m.owners, self._routes)
        return self._routes

    def range_limited(self, calc, codes, force_codec, acc, energies):
        nb = calc._range_limited(codes, force_codec, acc, energies)
        with calc.timers.time("machine_nt_assign"):
            routes = self._nt_routes(calc.machine)
        return nb, routes

    def deposit_bonded(self, calc, acc, bonded, force_codec) -> dict:
        for contrib in bonded:
            if contrib.n_terms:
                c = force_codec.quantize_round_only(contrib.force)
                acc.deposit(contrib.idx.ravel(), c.reshape(-1, 3))
        return calc._bonded_codes(bonded)

    def deposit_corrections(self, calc, acc, corr, ccodes) -> dict:
        self.kernels.deposit_pairs(acc.raw(), corr.i, corr.j, ccodes)
        return calc._correction_codes(corr)

    def mesh_long_range(self, calc, codes, acc, force_codec) -> float:
        t = calc.timers

        # FFT traffic accounting and the FFT solve are separate phases:
        # the former is simulated-machine bookkeeping, the latter engine
        # compute, and the overhead attribution must tell them apart.
        def account_fft():
            with t.time("mesh_fft_traffic"):
                calc.machine.account_fft()

        e_k, f_k = calc.gse.mesh_pass(
            codes, calc.system.charges, codec=calc.mesh_codec, kernels=self.kernels,
            plan=calc._mesh_plan, timers=t, before_solve=account_fft,
        )
        with t.time("mesh_interp"):
            acc.deposit_dense(force_codec.quantize_round_only(f_k))
        return float(e_k[0])

    def _import_route_arrays(self, machine) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) node ids of every tower/plate import route.

        The import region depends only on the decomposition and the
        (constant) reach, so the routes are computed once per machine.
        """
        if self._import_routes is None:
            reach = machine.params.cutoff + machine.migration.import_margin()
            srcs, dsts = [], []
            for node in range(machine.topology.n_nodes):
                tower, plate = tower_plate_boxes(
                    machine.decomp, machine.topology.coord(node), reach
                )
                for bx in tower | plate:
                    src = machine.topology.node_id(bx)
                    if src != node:
                        srcs.append(src)
                        dsts.append(node)
            self._import_routes = (
                np.asarray(srcs, dtype=np.int64),
                np.asarray(dsts, dtype=np.int64),
            )
        return self._import_routes

    def account_position_import(self, machine) -> None:
        counts = machine._node_occupancy()
        src, dst = self._import_route_arrays(machine)
        nbytes = counts[src] * machine.hw.bytes_per_position
        occupied = nbytes > 0
        # multicast_routes == send_batch for the flat statistics; an
        # attached router additionally groups the routes by source into
        # NT broadcast trees (matching the serial backend's grouping).
        machine.network.multicast_routes(
            src[occupied], dst[occupied], nbytes[occupied], tag="position_import"
        )

    def account_force_export(self, machine, export) -> None:
        """Charge the exact force-export routes from the route counts.

        Each remote (atom, computing-node) contribution is one summed
        force vector travelling from the computing node to the atom's
        owner; a route's byte count is the exact count of such vectors
        (times ``bytes_per_force``, floored at the minimum message
        size).  ``export`` holds one side's counts per route ``src * n +
        dst`` in each of its two rows, the routes taken in ascending
        order.  Local contributions (the computing node owns the atom)
        land on src == dst routes, which ``send_batch`` drops — the
        charged statistics are exactly the serial oracle's.
        """
        n = machine.topology.n_nodes
        for counts in export:
            routes = np.flatnonzero(counts)
            nbytes = np.maximum(
                counts[routes] * machine.hw.bytes_per_force, machine.hw.min_message_bytes
            )
            machine.network.send_batch(routes // n, routes % n, nbytes, tag="force_export")

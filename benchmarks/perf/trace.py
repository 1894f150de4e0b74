"""Outside-in tracing: spans around the program's public entry points.

The benchmark, not the program, installs these wrappers — class-level
replacements of public methods named in :data:`TARGETS` — so the traced
pass needs no change under ``src/``.  Each span records name, start,
end, parent span and the (phase, cycle) it ran in; spans stay in memory
and :meth:`Tracer.dump` writes them out when the workload ends.

A layer's *self time* is its span's duration minus the part its child
spans cover.  Wrapped methods nest strictly (single thread, no
generators), so that part is the sum of the direct children's
durations.

End-to-end metrics are always measured with no wrapper installed; the
traced pass is a separate run, and ``trace.overhead_ratio`` compares
cycles of one engine stepped alternately with and without wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["TARGETS", "Tracer"]


def _note_pairs(self, result):
    """(rebuilds so far, pairs returned) — counted where the work happens."""
    return (self.n_builds, len(result.i))


#: ``(module, class, attribute, span name, note)``.  Public callables
#: only.  ``note(self, result)`` optionally attaches a count to the span.
TARGETS = (
    ("repro.geometry.neighborlist", "NeighborList", "pairs", "geometry.pairs", _note_pairs),
    ("repro.ewald.gse", "MeshStencilPlan", "build", "ewald.plan", None),
    ("repro.ewald.gse", "MeshStencilPlan", "spread_codes", "ewald.spread", None),
    ("repro.ewald.gse", "MeshStencilPlan", "spread_float", "ewald.spread", None),
    ("repro.ewald.gse", "MeshStencilPlan", "interpolate_forces", "ewald.interp", None),
    ("repro.ewald.gse", "GaussianSplitEwald", "solve", "ewald.solve", None),
    ("repro.ewald.gse", "GaussianSplitEwald", "solve_stack", "ewald.solve", None),
    ("repro.ewald.gse", "GaussianSplitEwald", "kspace", "ewald.kspace", None),
    ("repro.fft.distributed", "DistributedFFT3D", "forward", "fft.transform", None),
    ("repro.fft.distributed", "DistributedFFT3D", "inverse", "fft.transform", None),
    ("repro.machine.backends", "VectorizedBackend", "range_limited",
     "machine.range_limited", None),
    ("repro.machine.backends", "VectorizedBackend", "mesh_long_range",
     "machine.mesh_long_range", None),
    ("repro.machine.backends", "VectorizedBackend", "deposit_bonded", "machine.deposit", None),
    ("repro.machine.backends", "VectorizedBackend", "deposit_corrections",
     "machine.deposit", None),
    ("repro.machine.machine", "AntonMachine", "account_position_import",
     "machine.account", None),
    ("repro.machine.machine", "AntonMachine", "account_force_export", "machine.account", None),
    ("repro.machine.machine", "AntonMachine", "account_fft", "machine.account", None),
    ("repro.machine.machine", "AntonMachine", "account_migration", "machine.account", None),
    ("repro.machine.machine", "AntonMachine", "step", "machine.step", None),
    ("repro.machine.machine", "MachineForceCalculator", "compute_fixed",
     "machine.compute", None),
    ("repro.machine.machine", "MachineForceCalculator", "compute_long_fixed",
     "machine.compute", None),
    ("repro.parallel.comm", "SimNetwork", "send_batch", "parallel.send", None),
    ("repro.parallel.comm", "SimNetwork", "multicast", "parallel.send", None),
    ("repro.parallel.comm", "SimNetwork", "multicast_routes", "parallel.send", None),
    ("repro.parallel.migration", "MigrationSchedule", "step", "parallel.migration", None),
    ("repro.core.constraints", "ConstraintSolver", "shake", "core.constraints", None),
    ("repro.core.constraints", "ConstraintSolver", "rattle", "core.constraints", None),
    ("repro.core.integrator", "FixedPointIntegrator", "step", "core.integrator", None),
    ("repro.core.forces", "MTSForceProvider", "__call__", "core.force", None),
    ("repro.core.forces", "ForceCalculator", "compute", "core.compute", None),
    ("repro.core.forces", "ForceCalculator", "compute_fixed", "core.compute", None),
    ("repro.core.forces", "ForceCalculator", "compute_long_fixed", "core.compute", None),
    ("repro.core.simulation", "Simulation", "run", "core.run", None),
    ("repro.core.simulation", "Simulation", "restore", "core.restore", None),
    ("repro.core.thermostat", "BerendsenThermostat", "__call__", "core.thermostat", None),
    ("repro.ensemble.engine", "EnsembleForceCalculator", "compute_fixed",
     "ensemble.compute", None),
    ("repro.ensemble.engine", "EnsembleForceCalculator", "compute_long_fixed",
     "ensemble.compute", None),
    ("repro.ensemble.engine", "EnsembleConstraintSolver", "shake",
     "ensemble.constraints", None),
    ("repro.ensemble.engine", "EnsembleConstraintSolver", "rattle",
     "ensemble.constraints", None),
    ("repro.ensemble.engine", "EnsembleSimulation", "run", "ensemble.run", None),
    ("repro.io.trajectory", "TrajectoryWriter", "write_frame", "io.write_frame", None),
    ("repro.io.trajectory", "TrajectoryWriter", "close", "io.traj_close", None),
    ("repro.io.trajectory", "TrajectoryWriter", "append", "io.append_open", None),
    ("repro.io.trajectory", "TrajectoryReader", "verify", "io.verify", None),
    ("repro.io.trajectory", "TrajectoryReader", "frame", "io.read_frame", None),
    ("repro.io.checkpoint", "CheckpointStore", "save", "io.checkpoint_save", None),
    ("repro.io.checkpoint", "CheckpointStore", "load", "io.checkpoint_load", None),
    ("repro.io.energylog", "EnergyLogWriter", "write", "io.energy_write", None),
)


class Tracer:
    """In-memory span recorder with installable method wrappers.

    A span is the list ``[name, start, end, parent, phase, cycle,
    note]``; ``parent`` indexes :attr:`spans` (-1 at top level).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.phase = "setup"
        self.cycle = -1
        self._stack: list[int] = []
        self._patches: list[tuple[type, str, object, object]] = []
        self._installed = False

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block (for calls the harness makes itself)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.phase, self.cycle, None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int, note) -> None:
        end = perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[2] = end
        rec[6] = note

    def _wrap(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    idx, note(args[0], result) if note and result is not None else None
                )

        return traced

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its traced twin (idempotent)."""
        if self._installed:
            return
        if not self._patches:
            for module, cls_name, attr, name, note in TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                raw = cls.__dict__[attr]  # KeyError: target moved — fix TARGETS
                if isinstance(raw, classmethod):
                    twin = classmethod(self._wrap(raw.__func__, name, note))
                else:
                    twin = self._wrap(raw, name, note)
                self._patches.append((cls, attr, raw, twin))
        for cls, attr, _raw, twin in self._patches:
            setattr(cls, attr, twin)
        self._installed = True

    def uninstall(self) -> None:
        """Restore the program's own methods."""
        if not self._installed:
            return
        for cls, attr, raw, _twin in self._patches:
            setattr(cls, attr, raw)
        self._installed = False

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str, phase: str | None = "window") -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (phase is None or s[4] == phase)]

    def total(self, name: str, phase: str | None = "window") -> float:
        return sum(self.durations(name, phase))

    def named(self, name: str, phase: str | None = "window") -> list[list]:
        return [s for s in self.spans
                if s[0] == name and (phase is None or s[4] == phase)]

    def self_times(self, phase: str | None = "window") -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        child_total: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_total[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            if phase is None or s[4] == phase:
                out[s[0]] += (s[2] - s[1]) - child_total.get(idx, 0.0)
        return dict(out)

    # -- output ------------------------------------------------------------

    def dump(self, path, seed: int) -> None:
        """Write every span to ``path`` (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "workload": self.workload,
            "seed": seed,
            "fields": ["name", "start_s", "end_s", "parent", "phase", "cycle", "note"],
            "spans": [
                [s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4], s[5], s[6]]
                for s in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))

"""Lightweight per-component wall-time and event counters.

Every :class:`~repro.core.forces.ForceCalculator` owns a
:class:`Timers` registry and charges each force component (pair
search, range-limited kernels, bonded, correction, k-space) to a named
accumulator; the neighbor list counts its builds and reuses in the
same registry.  The cumulative summary is surfaced in the CLI
(``--timings``), so hot-path optimizations — the buffered Verlet
list, the shared mesh stencil plan, and every future one — are
measurable without a profiler.

:meth:`Timers.time` is nesting-aware: in addition to the flat
per-name totals it records each timing under its full runtime path
(``step/force/machine_mesh/mesh_spread``), and :meth:`Timers.tree`
folds those paths into a hierarchical phase profile — the
``repro machine --profile`` report that shows where a whole time step
actually goes.

Timing is observational only: nothing in the numerics reads a clock,
so determinism and bitwise reproducibility are untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["Timers"]


class Timers:
    """Named wall-time accumulators plus event counters.

    ``elapsed`` keeps the familiar flat per-name totals (a name nested
    under several parents accumulates into one flat entry);
    ``paths`` additionally keys each total by the "/"-joined stack of
    enclosing :meth:`time` blocks, which is what :meth:`tree` renders.
    """

    __slots__ = ("elapsed", "counts", "paths", "_stack")

    def __init__(self) -> None:
        self.elapsed: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.paths: dict[str, float] = {}
        self._stack: list[str] = []

    @contextmanager
    def time(self, name: str):
        """Context manager charging the enclosed block to ``name``.

        The charge lands both in the flat ``elapsed[name]`` total and
        in ``paths`` under the current nesting (``outer/inner``).
        """
        self._stack.append(name)
        path = "/".join(self._stack)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.elapsed[name] = self.elapsed.get(name, 0.0) + dt
            self.paths[path] = self.paths.get(path, 0.0) + dt

    def add(self, name: str, seconds: float) -> None:
        self.elapsed[name] = self.elapsed.get(name, 0.0) + float(seconds)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(k)

    def reset(self) -> None:
        self.elapsed.clear()
        self.counts.clear()
        self.paths.clear()

    # -- hierarchy ---------------------------------------------------------

    def tree(self, root: str | None = None) -> dict:
        """Fold the recorded paths into a nested phase profile.

        Returns ``{name: {"seconds": s, "children": {...}}}`` mirroring
        the runtime nesting of :meth:`time` blocks.  With ``root``,
        only the subtree beneath that top-level phase is returned
        (e.g. ``tree("step")`` for the per-step profile).
        """
        out: dict = {}
        for path, secs in self.paths.items():
            parts = path.split("/")
            if root is not None:
                if parts[0] != root:
                    continue
                parts = parts[1:]
                if not parts:
                    continue
            node = out
            for part in parts[:-1]:
                node = node.setdefault(part, {"seconds": 0.0, "children": {}})[
                    "children"
                ]
            leaf = node.setdefault(parts[-1], {"seconds": 0.0, "children": {}})
            leaf["seconds"] += secs
        return out

    def profile(self, root: str, steps: int) -> dict:
        """Hierarchical per-step profile with attribution ratios.

        Folds the subtree under the top-level ``root`` phase into
        per-step seconds and computes two ratios against the measured
        ``root`` wall time: ``coverage`` (fraction accounted for by the
        root's direct children) and the stricter ``leaf_coverage``
        (fraction attributed all the way down to named leaf phases —
        time inside a parent but in none of its children counts as
        unattributed).  Shared by the machine's ``--profile`` dump and
        the ensemble engine so both report under one contract.
        """
        divisor = max(int(steps), 1)
        total = self.paths.get(root, 0.0)

        def scale(node: dict) -> dict:
            return {
                name: {
                    "seconds_per_step": entry["seconds"] / divisor,
                    "children": scale(entry["children"]),
                }
                for name, entry in sorted(
                    node.items(), key=lambda kv: -kv[1]["seconds"]
                )
            }

        def leaf_seconds(entry: dict) -> float:
            if not entry["children"]:
                return entry["seconds"]
            return sum(leaf_seconds(c) for c in entry["children"].values())

        phases = self.tree(root)
        covered = sum(entry["seconds"] for entry in phases.values())
        leaf_covered = sum(leaf_seconds(entry) for entry in phases.values())
        return {
            "steps": int(steps),
            "wall_per_step": total / divisor,
            "coverage": covered / total if total > 0.0 else 0.0,
            "leaf_coverage": leaf_covered / total if total > 0.0 else 0.0,
            "phases": scale(phases),
        }

    def summary_lines(self) -> list[str]:
        """Human-readable cumulative summary, slowest component first."""
        lines = [
            f"{name:<18} {secs * 1e3:10.2f} ms"
            for name, secs in sorted(self.elapsed.items(), key=lambda kv: -kv[1])
        ]
        lines += [
            f"{name:<18} {n:>10d} x"
            for name, n in sorted(self.counts.items())
        ]
        return lines

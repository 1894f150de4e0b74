"""Shared measurement plumbing: timed windows, set-up phases, checks.

A *window* is a sequence of cycles (one MTS cycle = 2 steps).  Before
each cycle, in the same thread, the harness runs the frozen host probe
(:mod:`probe`); the cycle's raw wall time and its adjacent probe time
are kept side by side so both the raw and the host-normalised numbers
can be reported.  Checks run between cycles and are never timed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probe as hostprobe

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

#: Steps in one cycle: the MTS interval every workload runs with.
STEPS_PER_CYCLE = 2
#: Steps run (and discarded) before every engine window.
WARMUP_STEPS = 2


def require_repro() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result.

    The benchmark measures the program in *this* checkout.  In a
    directory that holds only the benchmark there is nothing to
    measure, and pretending otherwise (an installed copy, a stub) would
    report numbers for the wrong code.
    """
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark error: no program to measure at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def ensure_compiled_tier() -> float:
    """Build/load the compiled kernel tier before any timing; seconds taken.

    Every engine workload is defined at the compiled tier, one thread;
    silently measuring the NumPy fallback instead would be a different
    benchmark, so a host without a C compiler is an error here.
    """
    from repro.kernels import get_suite

    t0 = perf_counter()
    suite = get_suite("compiled", 1)
    seconds = perf_counter() - t0
    if suite.tier != "compiled":
        print("benchmark error: compiled kernel tier unavailable "
              "(no working C compiler)", file=sys.stderr)
        raise SystemExit(2)
    return seconds


def spawn_workload(name: str, seed: int, seconds: float, trace: int = 0,
                   quick: bool = False) -> tuple[int, list[str], dict | None]:
    """Run one workload in a child process (own address space, own peak
    RSS).  Returns ``(exit code, stdout lines, parsed result line)``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, timeout=175)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, lines, None


def parse_counts(lines: list[str]) -> dict[str, str]:
    """The exact counts and the final-state digest a run printed."""
    counts = {}
    for line in lines:
        parts = line.split()
        if parts[:1] == ["count"] and len(parts) == 3:
            counts[parts[1]] = parts[2]
        elif parts[:2] == ["final-state", "sha256"]:
            counts["sha256"] = parts[2]
    return counts


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own three quartiles."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus reaped children), MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def state_digest(*arrays) -> str:
    """SHA-256 over the raw bytes of integer state arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# -- one-off phases -----------------------------------------------------------


class Phases:
    """Named one-off phases (set-up, close, restore), each bracketed by
    hot probe blocks.

    ``raw_s`` sums the phases' wall time; ``norm_s`` divides each phase
    by the host factor of the probes taken just before and after it, so
    a phase that ran while the host was slow is not charged for it.
    """

    def __init__(self):
        self.phases: dict[str, tuple[float, list[float]]] = {}
        self._last_block: list[float] | None = None

    @contextmanager
    def phase(self, name: str):
        before = self._last_block or hostprobe.probe_block()
        t0 = perf_counter()
        try:
            yield
        finally:
            raw = perf_counter() - t0
            after = hostprobe.probe_block()
            self._last_block = after
            old_raw, old_probes = self.phases.get(name, (0.0, []))
            self.phases[name] = (old_raw + raw, old_probes + before + after)

    @property
    def raw_s(self) -> float:
        return sum(raw for raw, _ in self.phases.values())

    @property
    def norm_s(self) -> float:
        return sum(hostprobe.normalise(raw, probes) for raw, probes in self.phases.values())

    @property
    def probes(self) -> list[float]:
        return [p for _, probes in self.phases.values() for p in probes]


# -- windows ------------------------------------------------------------------


@dataclass
class Window:
    """Raw cycle times with their adjacent probe times."""

    raw: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def norm_s(self) -> float:
        return hostprobe.normalise(self.raw_s, self.probes)

    @property
    def cycle_ms_p50(self) -> float:
        """Median cycle, scaled by the *window's* host factor.

        Not by each cycle's own probe: host speed wobbles by +-15 %
        from one 3 ms probe to the next, three times the wobble of a
        300 ms cycle, so a per-cycle ratio is mostly probe noise.
        """
        return 1e3 * hostprobe.normalise(median(self.raw), self.probes)

    @property
    def raw_cycle_ms_p50(self) -> float:
        return 1e3 * median(self.raw)

    @property
    def cv(self) -> float:
        return hostprobe.probe_cv(self.probes)


def run_window(cycle, n_cycles: int, between=None) -> Window:
    """Time ``cycle(c)`` for ``c`` in ``range(n_cycles)``.

    ``between(c)`` runs after each cycle, untimed (output checks,
    tracer bookkeeping).
    """
    w = Window()
    for c in range(n_cycles):
        w.probes.append(hostprobe.probe())
        t0 = perf_counter()
        cycle(c)
        w.raw.append(perf_counter() - t0)
        if between is not None:
            between(c)
    return w


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    seed: int
    quick: bool
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Exact event counts (must repeat for a fixed seed and sizing).
    counts: dict[str, int] = field(default_factory=dict)
    #: Human-readable remarks: failed checks, ``noisy_host``, caveats.
    notes: list[str] = field(default_factory=list)
    digest: str = ""

    def check(self, ok: bool, what: str, weight: int = 1) -> bool:
        """Count one checked operation; record ``what`` when it failed."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(f"CHECK FAILED: {what}")
        return ok

    def check_digest(self, sizing_key: str) -> None:
        """Compare the final-state digest with earlier runs of this checkout.

        The engines are deterministic, so the digest for one (workload,
        seed, sizing) never changes; the first run records it under
        ``out/`` and every later run must reproduce it.
        """
        OUT.mkdir(exist_ok=True)
        path = OUT / f"digest_{self.workload}_{sizing_key}_s{self.seed}.sha256"
        if path.exists():
            self.check(path.read_text().strip() == self.digest,
                       f"final state digest differs from {path.name}")
        else:
            path.write_text(self.digest + "\n")
            self.attempted += 1

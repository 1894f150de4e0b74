"""What the three in-process engine workloads share.

Window measurement with the noisy-host re-run, the end-to-end metric
arithmetic, the traced/untraced alternation that yields
``trace.overhead_ratio``, and the layer metrics every engine reports
(host, raw, core, geometry, ewald).
"""

from __future__ import annotations

import gc
import os
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import probe as hostprobe
from common import (
    STEPS_PER_CYCLE,
    WARMUP_STEPS,
    Phases,
    Result,
    Window,
    median,
    peak_rss_mb,
    run_window,
)

#: Forced neighbour rebuilds in warm-up; two, because the first leaves
#: the heap fragmented enough that the second still grows it.
HEAP_WARMUP_REBUILDS = 2


def prepare_system(setup: Phases, tracer, waters: int, seed: int, params,
                   minimize_steps: int):
    """Build and minimise the water box every engine workload starts from.

    ``--seed`` offsets the build seed here and the velocity seeds in the
    callers; the two phases are charged to ``setup`` and, in the traced
    pass, bracketed by spans (both are module functions the harness
    calls itself, so there is no method to wrap).
    """
    from repro.core import minimize_energy
    from repro.systems import build_water_box

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with setup.phase("build"), span("systems.build"):
        system = build_water_box(n_molecules=waters, seed=7 + seed)
    with setup.phase("minimize"), span("core.minimize"):
        minimize_energy(system, params, max_steps=minimize_steps)
    return system


def check_temperature(res: Result, integrator, steps: int) -> None:
    """Between-cycle sanity check, counted once per step it vouches for."""
    t = integrator.temperature()
    res.check(50.0 < t < 2000.0, f"temperature {t:.0f} K out of range", weight=steps)


def check_short_range_forces(res: Result, system, params, integrator, who: str,
                             n_atoms: int | None = None, energy=float) -> None:
    """An engine's last forces == the solo reference calculator's, bit for bit.

    The range-limited + bonded part of the engine's last force
    evaluation (as reported in ``last_info``) is recomputed at the same
    positions by a fresh NumPy :class:`ForceCalculator` — the
    parallel-invariance contract, checked on the benchmark's own final
    state.  ``n_atoms`` restricts the comparison to the leading rows
    (replica 0 of a stacked system) and ``energy`` picks that replica's
    entry out of per-replica energy arrays.
    """
    from repro.core.forces import ForceCalculator

    rows = slice(0, n_atoms)
    ref = ForceCalculator(system.copy(), params)
    _codes, report = ref.compute_fixed(
        integrator.positions[rows], integrator.force_codec, include_long_range=False
    )
    got = integrator.last_info
    res.check(np.array_equal(report.forces, got.forces[rows]),
              f"{who} range-limited+bonded forces differ from the solo reference")
    for key in ("lj", "coulomb_real", "bond", "angle"):
        res.check(report.energies[key] == energy(got.energies[key]),
                  f"{who} energy {key!r} differs from the solo reference")


def warm_up(advance, neighbor_list, positions) -> None:
    """``WARMUP_STEPS`` steps, then grow the heap to its high-water mark.

    A neighbour rebuild makes the largest temporaries of the whole run;
    forcing it here keeps the page faults of heap growth out of the
    window (see ``run.BENCH_ENV``).  ``positions`` is a callable, since
    the steps move the atoms first.
    """
    advance(WARMUP_STEPS)
    for _ in range(HEAP_WARMUP_REBUILDS):
        neighbor_list.build(positions())


def measure_window(res: Result, setup: Phases, fresh, n_cycles: int, tracer=None):
    """Run one window; re-measure once if the host was unsteady.

    ``fresh(charge)`` builds a warmed-up engine from the pristine
    prepared system, charging construction and warm-up to the
    :class:`Phases` it is given, and returns ``(engine, cycle,
    between)``.  It is called once normally; when the window's probe
    spread exceeds :data:`probe.NOISY_CV` the engine is rebuilt from the
    same state (so every count repeats; that rebuild is charged to a
    throwaway ``Phases``, since no user pays it) and the window measured
    again.  A second unsteady window is reported, flagged
    ``noisy_host``.

    Returns ``(engine, window, reruns)``.
    """
    engine, cycle, between = fresh(setup)
    window_start = len(tracer.spans) if tracer is not None else 0
    window = timed_window(cycle, between, n_cycles, tracer)
    reruns = 0
    if window.cv > hostprobe.NOISY_CV:
        reruns = 1
        res.notes.append(f"window re-measured once: probe spread {window.cv:.3f} > "
                         f"{hostprobe.NOISY_CV}")
        close = getattr(engine, "close", None)
        if close is not None:
            close()
        # Drop the first engine before building the second, so the kept
        # heap is reused and peak RSS does not double.
        del engine, cycle, between
        gc.collect()
        if tracer is not None:
            # Keep only the re-measured window's spans.  The discarded
            # window is the tail of the list, so parent indices of what
            # stays (and of what follows) remain valid.
            del tracer.spans[window_start:]
            tracer.phase = "rerun-setup"
        engine, cycle, between = fresh(Phases())
        window = timed_window(cycle, between, n_cycles, tracer)
        if window.cv > hostprobe.NOISY_CV:
            res.notes.append(
                f"noisy_host: probe spread {window.cv:.3f} > {hostprobe.NOISY_CV} "
                "on both attempts; numbers are suspect"
            )
    return engine, window, reruns


def timed_window(cycle, between, n_cycles: int, tracer) -> Window:
    """:func:`common.run_window`, with each cycle inside a ``cycle`` span
    (phase ``window``) when a tracer is given."""
    if tracer is None:
        return run_window(cycle, n_cycles, between)
    tracer.phase = "window"

    def traced_cycle(c):
        tracer.cycle = c
        with tracer.span("cycle"):
            cycle(c)

    try:
        return run_window(traced_cycle, n_cycles, between)
    finally:
        tracer.phase = "after"
        tracer.cycle = -1


def end_to_end(res: Result, setup: Phases, window: Window, steps: int,
               extra_norm_s: float = 0.0) -> None:
    """Fill the four end-to-end metrics from a set-up and a window."""
    res.end_to_end = {
        "steps_per_s": steps / (window.norm_s + extra_norm_s),
        "cycle_ms_p50": window.cycle_ms_p50,
        "setup_s": setup.norm_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def overhead_ratio(tracer, cycle, neighbor_list, n_pairs: int = 6) -> float:
    """Median traced cycle over median untraced cycle, same engine.

    Cycles alternate with and without the wrappers installed, so host
    drift and the engine's own state hit both sides alike.  Cycles that
    paid a neighbour rebuild are left out: rebuilds recur every few
    cycles and can fall on one side only (every one of them on the
    untraced side gave a "ratio" of 0.50).
    """
    tracer.phase = "overhead"
    sides = {True: [], False: []}
    for k in range(8 * n_pairs):
        on = k % 2 == 0
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        builds = neighbor_list.n_builds
        p = hostprobe.probe()
        t0 = perf_counter()
        cycle(k)
        dt = perf_counter() - t0
        if neighbor_list.n_builds == builds:
            sides[on].append(hostprobe.normalise(dt, [p]))
        if min(len(sides[True]), len(sides[False])) >= n_pairs:
            break
    tracer.install()
    tracer.phase = "after"
    return median(sides[True]) / median(sides[False])


def common_layers(res: Result, tracer, setup: Phases, window: Window, steps: int,
                  reruns: int, kernels_build_s: float, neighbor_list,
                  min_span: str = "core.minimize") -> float:
    """Layer metrics every engine workload reports from its trace.

    Returns the factor that turns raw window seconds into
    reference-host milliseconds, for the caller's own layer metrics.
    """
    L = res.layers
    # Span times are raw; scale them to reference-host time with the
    # window's host factor (raw.* stay raw on purpose).
    k = 1e3 / hostprobe.host_factor(window.probes)
    all_probes = setup.probes + window.probes
    L["host.probe_ms_p50"] = 1e3 * median(all_probes)
    L["host.probe_cv"] = window.cv
    L["host.nproc"] = float(os.cpu_count() or 1)
    L["host.reruns"] = float(reruns)
    L["raw.steps_per_s"] = steps / window.raw_s
    L["raw.cycle_ms_p50"] = window.raw_cycle_ms_p50
    L["raw.setup_s"] = setup.raw_s
    L["kernels.build_s"] = kernels_build_s
    L["systems.build_ms"] = 1e3 * hostprobe.normalise(
        tracer.total("systems.build", "setup"), setup.phases["build"][1])
    evals = len(tracer.named("core.compute", "setup"))
    if evals:
        L["core.minimize_ms_per_iter"] = 1e3 * hostprobe.normalise(
            tracer.total(min_span, "setup"), setup.phases["minimize"][1]) / evals

    self_s = tracer.self_times("window")
    L["core.force_ms_per_step"] = k * tracer.total("core.force") / steps
    L["core.constraints_ms_per_step"] = k * (
        tracer.total("core.constraints") + tracer.total("ensemble.constraints")
    ) / steps
    L["core.integrator_self_ms_per_step"] = k * self_s.get("core.integrator", 0.0) / steps

    # geometry: a pairs() call paid a rebuild when the list's build
    # counter moved since the previous call.  The previous call of the
    # window's first is the warm-up's (same engine, same list).
    rebuild, reuse, n_pairs = [], [], []
    seen = 0
    for s in tracer.named("geometry.pairs", None):
        builds, count = s[6]
        if s[4] == "window":
            (rebuild if builds > seen else reuse).append(s[2] - s[1])
            n_pairs.append(count)
        seen = builds
    if reuse:
        L["geometry.pairs_ms_per_step"] = k * sum(reuse) / len(reuse)
    if rebuild:
        L["geometry.neighbor_build_ms_p50"] = k * median(rebuild)
    L["geometry.neighbor_builds"] = float(len(rebuild))
    L["geometry.rebuild_share"] = sum(rebuild) / window.raw_s
    L["geometry.candidate_pairs"] = float(neighbor_list.n_candidates)
    if n_pairs:
        L["geometry.pairs_per_step"] = sum(n_pairs) / len(n_pairs)

    # ewald: per long-range evaluation (= per stencil-plan build).
    evals = len(tracer.named("ewald.plan"))
    if evals:
        parts = {k: tracer.total(f"ewald.{k}") for k in ("plan", "spread", "solve", "interp")}
        L["ewald.mesh_plan_ms"] = k * parts["plan"] / evals
        L["ewald.mesh_spread_ms"] = k * parts["spread"] / evals
        L["ewald.mesh_solve_ms"] = k * parts["solve"] / evals
        L["ewald.mesh_interp_ms"] = k * parts["interp"] / evals
        L["ewald.mesh_ms_per_step"] = k * sum(parts.values()) / steps
    kspace = tracer.durations("ewald.kspace", None)
    if kspace:
        L["ewald.kspace_ms"] = k * sum(kspace) / len(kspace)

    cycle_self = self_s.get("cycle", 0.0)
    L["trace.coverage"] = 1.0 - cycle_self / max(tracer.total("cycle"), 1e-12)
    res.counts["geometry.neighbor_builds"] = len(rebuild)
    res.counts["geometry.candidate_pairs"] = neighbor_list.n_candidates
    res.counts["geometry.pairs_total"] = sum(n_pairs)
    return k


def steps_of(n_cycles: int) -> int:
    return n_cycles * STEPS_PER_CYCLE

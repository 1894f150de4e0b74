"""``ensemble8`` — eight replicas through one batched engine pass.

``EnsembleSimulation``, R=8 x 250 waters (750 atoms each), cutoff
9.0 A, mesh 16^3, table kernels, compiled tier T1,
``minimize_energy(max_steps=30)``.  Steps are counted as
replica-steps.

The same ``kernels``/``ewald``/``geometry`` code as ``machine64`` used
differently — batched ``EnsembleNeighborList``, ``solve_stack``,
``shake_batch`` — with no ``machine``/``parallel``/``io`` at all, so a
mesh or neighbour-list change that helps one shape and costs the other
shows here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import engine
from common import (
    STEPS_PER_CYCLE,
    WARMUP_STEPS,
    Phases,
    Result,
    ensure_compiled_tier,
    run_window,
    state_digest,
)

NAME = "ensemble8"


@dataclass(frozen=True)
class Sizing:
    replicas: int
    waters: int
    cutoff: float
    mesh: int
    minimize_steps: int
    cycles_per_second: float
    min_cycles: int
    #: Step at which replica 0 is compared with the same-seed R=1 run.
    r1_check_step: int
    key: str


FULL = Sizing(8, 250, 9.0, 16, 30, 2.2, 30, 42, "full")
QUICK = Sizing(2, 32, 4.0, 32, 10, 2.0, 12, 12, "quick")


def n_cycles(sz: Sizing, seconds: float) -> int:
    return max(sz.min_cycles, round(seconds * sz.cycles_per_second))


def _params(sz: Sizing):
    from repro.core import MDParams

    return MDParams(
        cutoff=sz.cutoff, mesh=(sz.mesh,) * 3, kernel_mode="table",
        long_range_every=STEPS_PER_CYCLE, quantize_mesh_bits=40,
    )


def _ensemble(system, params, seeds):
    from repro.ensemble import EnsembleSimulation

    return EnsembleSimulation(
        system.copy(), params, dt=1.0, seeds=seeds, temperature=300.0,
        kernel_tier="compiled", kernel_threads=1,
    )


def run(seed: int, seconds: float, quick: bool = False, tracer=None) -> Result:
    sz = QUICK if quick else FULL
    res = Result(NAME, seed, quick)
    cycles = n_cycles(sz, seconds)
    steps = cycles * STEPS_PER_CYCLE * sz.replicas  # replica-steps
    params = _params(sz)
    seeds = [8 + seed + 1000 * r for r in range(sz.replicas)]
    kernels_build_s = ensure_compiled_tier()

    setup = Phases()
    system = engine.prepare_system(setup, tracer, sz.waters, seed, params, sz.minimize_steps)
    replica0_at_check: list = []

    def fresh(charge: Phases):
        with charge.phase("construct"):
            ens = _ensemble(system, params, seeds)
        with charge.phase("warmup"):
            engine.warm_up(ens.run, ens.calc.neighbor_list,
                           lambda: ens.integrator.positions)
        replica0_at_check.clear()

        def cycle(_c):
            ens.run(STEPS_PER_CYCLE)

        def between(_c):
            engine.check_temperature(res, ens.integrator, STEPS_PER_CYCLE * sz.replicas)
            if ens.integrator.step_count == sz.r1_check_step:
                replica0_at_check.append(ens.state_codes(0))

        return ens, cycle, between

    ens, window, reruns = engine.measure_window(res, setup, fresh, cycles, tracer)
    engine.end_to_end(res, setup, window, steps)
    nl = ens.calc.neighbor_list
    res.counts.update({"replica_steps": steps, "neighbor_builds_total": nl.n_builds})
    if not quick:
        rebuilds = nl.n_builds - 1 - engine.HEAP_WARMUP_REBUILDS
        res.check(rebuilds >= 8, f"only {rebuilds} neighbour rebuilds in the window")
    engine.check_short_range_forces(
        res, system, params, ens.integrator, "replica 0",
        n_atoms=ens.n_solo, energy=lambda per_replica: float(per_replica[0]))
    res.digest = state_digest(ens.integrator.X, ens.integrator.V)
    res.check_digest(f"{sz.key}_c{cycles}")
    if tracer is not None:
        _layers(res, tracer, setup, window, steps, reruns, kernels_build_s,
                ens, system, params, seeds, replica0_at_check, sz.r1_check_step)
    return res


def _layers(res, tracer, setup, window, steps, reruns, kernels_build_s,
            ens, system, params, seeds, replica0_at_check, check_step) -> None:
    import kernelbench

    L = res.layers
    k = engine.common_layers(res, tracer, setup, window, steps, reruns,
                             kernels_build_s, ens.calc.neighbor_list)
    self_s = tracer.self_times("window")
    L["ensemble.force_ms_per_step"] = k * tracer.total("ensemble.compute") / steps
    L["ensemble.constraints_ms_per_step"] = k * tracer.total("ensemble.constraints") / steps
    L["ensemble.step_self_ms"] = k * self_s.get("ensemble.run", 0.0) / steps
    prof = ens.profile()
    L["perf.profile_leaf_coverage"] = prof["leaf_coverage"]

    L["trace.overhead_ratio"] = engine.overhead_ratio(
        tracer, lambda _k: ens.run(STEPS_PER_CYCLE), ens.calc.neighbor_list)

    # Same-tier R=1 twin of replica 0: the honest baseline for batching
    # (the ROADMAP's point: the 4.2x headline compared against a numpy
    # solo run), and a bitwise check of replica 0 at a fixed step.
    tracer.uninstall()
    try:
        solo = _ensemble(system, params, seeds[:1])
        solo.run(WARMUP_STEPS)
        r1 = run_window(lambda _c: solo.run(STEPS_PER_CYCLE),
                        (check_step - WARMUP_STEPS) // STEPS_PER_CYCLE)
    finally:
        tracer.install()
    r1_rate = (check_step - WARMUP_STEPS) / r1.norm_s
    L["ensemble.r1_steps_per_s"] = r1_rate
    L["ensemble.batching_ratio"] = res.end_to_end["steps_per_s"] / r1_rate
    if replica0_at_check:
        same = all(np.array_equal(a, b)
                   for a, b in zip(replica0_at_check[0], solo.state_codes(0)))
        res.check(same, f"replica 0 at step {check_step} differs from the R=1 run")
    else:
        res.check(False, f"window never reached step {check_step}")

    shapes = kernelbench.capture(ens.kernels, lambda: ens.run(STEPS_PER_CYCLE))
    L.update(kernelbench.run(shapes, res))

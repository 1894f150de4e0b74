"""``machine64`` — the paper's centrepiece at the ROADMAP reference size.

``AntonMachine``, 64 nodes, ``vectorized`` backend, compiled tier T1,
1,700 waters (5,100 atoms), cutoff 9.0 A, mesh 32^3, table kernels,
``long_range_every=2``, ``quantize_mesh_bits=40``.

The only workload where the single-system neighbour rebuild, the 32^3
mesh, the machine/parallel bookkeeping and the distributed-FFT
accounting do most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

import engine
import probe as hostprobe
from common import (
    STEPS_PER_CYCLE,
    WARMUP_STEPS,
    Result,
    Phases,
    ensure_compiled_tier,
    median,
    state_digest,
)

NAME = "machine64"


@dataclass(frozen=True)
class Sizing:
    waters: int
    nodes: int
    cutoff: float
    mesh: int
    #: Steepest-descent iterations in set-up.  The issue asked for 10;
    #: each costs ~1.5 s at this size, and the contract's total-time cap
    #: only fits 3.  Fewer iterations leave the box hotter, not
    #: different in cost structure (one rebuild per ~9 steps either way).
    minimize_steps: int
    #: Window length: cycles per requested ``--seconds`` (frozen nominal
    #: rate, so the step count — and every event count — is a pure
    #: function of the arguments, never of how fast the host is).
    cycles_per_second: float
    min_cycles: int
    #: Cycles each of the routed / faulted / plain side passes runs.
    side_cycles: int
    key: str


FULL = Sizing(1700, 64, 9.0, 32, 3, 2.6, 36, 6, "full")
QUICK = Sizing(64, 8, 4.0, 32, 3, 1.0, 6, 2, "quick")


def n_cycles(sz: Sizing, seconds: float) -> int:
    return max(sz.min_cycles, round(seconds * sz.cycles_per_second))


def _params(sz: Sizing):
    from repro.core import MDParams

    return MDParams(
        cutoff=sz.cutoff, mesh=(sz.mesh,) * 3, kernel_mode="table",
        long_range_every=STEPS_PER_CYCLE, quantize_mesh_bits=40,
    )


def _machine(system, params, sz: Sizing, **extra):
    from repro.machine import AntonMachine

    return AntonMachine(
        system.copy(), params, n_nodes=sz.nodes, dt=1.0, backend="vectorized",
        kernel_tier="compiled", kernel_threads=1, **extra,
    )


def run(seed: int, seconds: float, quick: bool = False, tracer=None) -> Result:
    sz = QUICK if quick else FULL
    res = Result(NAME, seed, quick)
    cycles = n_cycles(sz, seconds)
    steps = cycles * STEPS_PER_CYCLE
    params = _params(sz)
    kernels_build_s = ensure_compiled_tier()

    setup = Phases()
    system = engine.prepare_system(setup, tracer, sz.waters, seed, params, sz.minimize_steps)
    system.initialize_velocities(300.0, seed=8 + seed)
    first_span = 0  # index of the measured engine's first span

    def fresh(charge: Phases):
        nonlocal first_span
        first_span = len(tracer.spans) if tracer is not None else 0
        with charge.phase("construct"):
            machine = _machine(system, params, sz)
        with charge.phase("warmup"):
            engine.warm_up(machine.step, machine.calc.neighbor_list,
                           lambda: machine.positions)

        def cycle(_c):
            machine.step(STEPS_PER_CYCLE)

        def between(_c):
            engine.check_temperature(res, machine.integrator, STEPS_PER_CYCLE)

        return machine, cycle, between

    machine, window, reruns = engine.measure_window(res, setup, fresh, cycles, tracer)
    try:
        engine.end_to_end(res, setup, window, steps)
        nl = machine.calc.neighbor_list
        rebuilds = nl.n_builds - 1 - engine.HEAP_WARMUP_REBUILDS  # minus construction's, warm-up's
        res.counts.update({
            "steps": steps,
            "neighbor_builds_total": nl.n_builds,
            "messages": int(machine.network.stats.messages),
            "bytes": int(machine.network.stats.bytes),
        })
        if not quick:
            res.check(rebuilds >= 6, f"only {rebuilds} neighbour rebuilds in the window")
        engine.check_short_range_forces(res, system, params, machine.integrator, "machine")
        X, V = machine.state_codes()
        res.digest = state_digest(X, V)
        res.check_digest(f"{sz.key}_c{cycles}")
        if tracer is not None:
            _layers(res, tracer, setup, window, steps, reruns, kernels_build_s,
                    machine, system, params, sz, first_span)
    finally:
        machine.close()
    return res


def _layers(res, tracer, setup, window, steps, reruns, kernels_build_s,
            machine, system, params, sz, first_span) -> None:
    import kernelbench
    from repro.fft import DistributedFFT3D
    from repro.parallel import SimNetwork
    from repro.perf import Timers

    L = res.layers
    k = engine.common_layers(res, tracer, setup, window, steps, reruns,
                             kernels_build_s, machine.calc.neighbor_list)
    self_s = tracer.self_times("window")
    L["machine.construct_s"] = hostprobe.normalise(*setup.phases["construct"])
    L["machine.range_limited_ms_per_step"] = k * tracer.total("machine.range_limited") / steps
    evals = len(tracer.named("machine.mesh_long_range"))
    L["machine.mesh_long_range_ms_per_eval"] = (
        k * tracer.total("machine.mesh_long_range") / max(evals, 1))
    L["machine.deposit_ms_per_step"] = k * tracer.total("machine.deposit") / steps
    L["machine.account_ms_per_step"] = k * tracer.total("machine.account") / steps
    L["machine.step_self_ms"] = k * self_s.get("machine.step", 0.0) / steps
    total_steps = machine.integrator.step_count
    L["parallel.messages_per_node_per_step"] = machine.messages_per_node_per_step()
    L["parallel.bytes_per_step"] = machine.network.stats.bytes / total_steps  # computed
    L["parallel.send_batch_ms_per_step"] = k * tracer.total("parallel.send") / steps

    # The program's own profiler, read only as a cross-check.
    prof = machine.profile()
    L["perf.profile_leaf_coverage"] = prof["leaf_coverage"]
    traced_s = sum(s[2] - s[1] for s in tracer.spans[first_span:] if s[0] == "machine.step")
    L["perf.profile_vs_trace_ratio"] = (
        prof["wall_per_step"] / (traced_s / machine.integrator.step_count))
    timers = Timers()
    t0 = perf_counter()
    for _ in range(20_000):
        with timers.time("x"):
            pass
    L["perf.timer_span_us"] = (perf_counter() - t0) / 20_000 * 1e6

    L["trace.overhead_ratio"] = engine.overhead_ratio(
        tracer, lambda _k: machine.step(STEPS_PER_CYCLE), machine.calc.neighbor_list)

    # Distributed FFT on its own network, so the machine's traffic
    # counters above stay the window's.
    dfft = DistributedFFT3D(params.mesh, machine.topology, SimNetwork(machine.topology))
    mesh = np.random.default_rng(0).standard_normal(params.mesh)
    p = hostprobe.probe_block()
    t0 = perf_counter()
    reps = 6
    for _ in range(reps):
        dfft.inverse(dfft.forward(mesh))
    L["fft.distributed_ms_per_transform"] = 1e3 * hostprobe.normalise(
        (perf_counter() - t0) / (2 * reps), p)

    _side_passes(res, tracer, system, params, sz)
    shapes = kernelbench.capture(
        machine.backend.kernels, lambda: machine.step(STEPS_PER_CYCLE))
    L.update(kernelbench.run(shapes, res))


def _side_passes(res, tracer, system, params, sz) -> None:
    """Routed and faulted twins against a plain machine, cycle by cycle.

    Three machines start from the same state and step alternately, so
    rebuild cycles coincide and the ratio of median cycle times isolates
    what routing (pure accounting) and fault recovery add.  All three
    must end in the same bits.
    """
    tracer.uninstall()
    plain = _machine(system, params, sz)
    routed = _machine(system, params, sz, routed=True)
    # An integer is a count per run() call: one dropped message per
    # cycle.  (The issue's "drop=1e-3" is a per-step probability and
    # injects nothing in a pass this short.)
    faulted = _machine(system, params, sz, faults="drop=1", fault_seed=res.seed)
    times = {"plain": [], "routed": [], "faulted": []}
    try:
        # run() rather than step(): only run() brackets steps with the
        # fault controller, and all three must take the same path.
        for m in (plain, routed, faulted):
            m.run(WARMUP_STEPS)
        for _ in range(sz.side_cycles):
            for name, m in (("plain", plain), ("routed", routed), ("faulted", faulted)):
                p = hostprobe.probe()
                t0 = perf_counter()
                m.run(STEPS_PER_CYCLE)
                times[name].append(hostprobe.normalise(perf_counter() - t0, [p]))
        L = res.layers
        L["network.routed_overhead_ratio"] = median(times["routed"]) / median(times["plain"])
        L["fault.recovery_overhead_ratio"] = median(times["faulted"]) / median(times["plain"])
        side_steps = routed.integrator.step_count
        router = routed.router
        L["network.link_bytes_per_step"] = router.primary.total_bytes() / side_steps
        conserved = (
            router.primary.total_bytes()
            + router.multicast_saved_hop_bytes
            + router.compression_saved_hop_bytes
            == routed.network.stats.hop_bytes
        )
        L["network.conservation_ok"] = float(conserved)
        res.check(conserved, "routed link bytes do not decompose hop_bytes")
        report = faulted.fault_report()
        L["fault.retries"] = float(report.get("retries", 0))
        res.counts["fault.retries"] = int(report.get("retries", 0))
        res.counts["network.link_bytes"] = int(router.primary.total_bytes())
        ref = plain.state_codes()
        for name, m in (("routed", routed), ("faulted", faulted)):
            same = all(np.array_equal(a, b) for a, b in zip(ref, m.state_codes()))
            res.check(same, f"{name} machine's state differs from the plain machine's")
    finally:
        for m in (plain, routed, faulted):
            m.close()
        tracer.install()

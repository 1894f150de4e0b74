"""The benchmark's vocabulary: workloads, metric names, units, bounds.

One table, read by the harness (what to print), by ``BENCHMARK.json``
(what the driver expects — ``tests/test_contract.py`` pins the two to
each other) and by ``--selfcheck`` (which bound a gap is judged by).
"""

from __future__ import annotations

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "KERNEL_PRIMS",
    "KERNEL_TIERS",
    "benchmark_json",
]

#: ``(name, why)`` — why each workload exists; see README.md for the
#: full argument and the interaction table.
WORKLOADS = (
    ("machine64",
     "64-node AntonMachine, 5,100 atoms, compiled T1: only workload where "
     "single-system rebuild, 32^3 mesh and machine/parallel bookkeeping dominate"),
    ("ensemble8",
     "R=8 x 750-atom EnsembleSimulation, compiled T1: same kernels/ewald/geometry "
     "used batched, no machine/parallel/io, so shape-specific gains show"),
    ("solo_io",
     "solo NumPy Simulation with trajectory/checkpoint/restore/verify: only "
     "workload on the core NumPy path with io both ways and no compiled tier"),
    ("serve_mix",
     "live repro serve, closed loop of 8 outstanding mixed-priority jobs: only "
     "workload where journal, scheduler, dispatch and per-job setup dominate"),
)

#: ``(name, unit, better, bound)``.  One bound per metric (the contract
#: allows no per-workload bounds), so each is set by the noisiest
#: workload: about three times the widest run-to-run spread (IQR over
#: median of ten runs, each with another seed) seen on the 2-vCPU sizing
#: host — ``machine64`` for ``steps_per_s`` (8.9 %) and ``peak_rss_mb``
#: (4.4 %), ``serve_mix`` for ``cycle_ms_p50`` (10 %).  The quieter
#: workloads resolve much smaller changes than the bound (see
#: README.md); a claim is judged by paired runs, not by the bound.
#: ``fail_ratio`` from the issue is carried by the ``attempted`` /
#: ``failed`` fields of the result line instead — a metric that is
#: always 0 has no relative bound.
END_TO_END = (
    ("steps_per_s", "1/s", "higher", 0.25),
    ("cycle_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

KERNEL_PRIMS = (
    "pair_filter",
    "pair_table_codes",
    "deposit_pairs",
    "scatter_add",
    "mesh_plan_block",
    "mesh_spread",
    "shake_batch",
    "rattle_batch",
)
KERNEL_TIERS = ("numpy", "compiled", "compiled_t2")

#: ``(name, unit, better)`` for every per-layer metric.
PER_LAYER = (
    # host: what the machine under the benchmark was doing
    ("host.probe_ms_p50", "ms", "lower"),
    ("host.probe_cv", "ratio", "lower"),
    ("host.memcpy_gb_per_s", "GB/s", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.reruns", "count", "lower"),
    # raw: the end-to-end numbers before normalisation (shows the drift removed)
    ("raw.steps_per_s", "1/s", "higher"),
    ("raw.cycle_ms_p50", "ms", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("systems.build_ms", "ms", "lower"),
    ("core.minimize_ms_per_iter", "ms", "lower"),
    ("core.force_ms_per_step", "ms", "lower"),
    ("core.constraints_ms_per_step", "ms", "lower"),
    ("core.integrator_self_ms_per_step", "ms", "lower"),
    ("geometry.pairs_ms_per_step", "ms", "lower"),
    ("geometry.neighbor_build_ms_p50", "ms", "lower"),
    ("geometry.neighbor_builds", "count", "lower"),
    ("geometry.rebuild_share", "ratio", "lower"),
    ("geometry.candidate_pairs", "count", "lower"),
    ("geometry.pairs_per_step", "count", "lower"),
    ("ewald.mesh_plan_ms", "ms", "lower"),
    ("ewald.mesh_spread_ms", "ms", "lower"),
    ("ewald.mesh_solve_ms", "ms", "lower"),
    ("ewald.mesh_interp_ms", "ms", "lower"),
    ("ewald.mesh_ms_per_step", "ms", "lower"),
    ("ewald.kspace_ms", "ms", "lower"),
    ("fft.distributed_ms_per_transform", "ms", "lower"),
    ("kernels.build_s", "s", "lower"),
    *(
        (f"kernels.{prim}.{tier}.mitems_per_s", "Mitems/s", "higher")
        for prim in KERNEL_PRIMS
        for tier in KERNEL_TIERS
    ),
    *((f"kernels.{prim}.roofline_frac", "ratio", "higher") for prim in KERNEL_PRIMS),
    ("machine.construct_s", "s", "lower"),
    ("machine.range_limited_ms_per_step", "ms", "lower"),
    ("machine.mesh_long_range_ms_per_eval", "ms", "lower"),
    ("machine.deposit_ms_per_step", "ms", "lower"),
    ("machine.account_ms_per_step", "ms", "lower"),
    ("machine.step_self_ms", "ms", "lower"),
    ("parallel.messages_per_node_per_step", "count", "lower"),
    ("parallel.bytes_per_step", "bytes", "lower"),
    ("parallel.send_batch_ms_per_step", "ms", "lower"),
    ("network.routed_overhead_ratio", "ratio", "lower"),
    ("network.link_bytes_per_step", "bytes", "lower"),
    ("network.conservation_ok", "count", "higher"),
    ("fault.recovery_overhead_ratio", "ratio", "lower"),
    ("fault.retries", "count", "lower"),
    ("ensemble.force_ms_per_step", "ms", "lower"),
    ("ensemble.constraints_ms_per_step", "ms", "lower"),
    ("ensemble.step_self_ms", "ms", "lower"),
    ("ensemble.r1_steps_per_s", "1/s", "higher"),
    ("ensemble.batching_ratio", "ratio", "higher"),
    ("io.write_frame_ms_p50", "ms", "lower"),
    ("io.traj_close_ms", "ms", "lower"),
    ("io.checkpoint_save_ms_p50", "ms", "lower"),
    ("io.checkpoint_load_ms", "ms", "lower"),
    ("io.append_open_ms", "ms", "lower"),
    ("io.verify_mb_per_s", "MB/s", "higher"),
    ("io.read_frames_per_s", "1/s", "higher"),
    ("io.bytes_per_step", "bytes", "lower"),
    ("io.share", "ratio", "lower"),
    ("serve.boot_s", "s", "lower"),
    ("serve.submit_rtt_ms_p50", "ms", "lower"),
    ("serve.jobs_rtt_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.dispatches", "count", "lower"),
    ("serve.preemptions", "count", "lower"),
    ("serve.slices", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.worker_busy_frac", "ratio", "higher"),
    ("serve.prepare_ms", "ms", "lower"),
    ("serve.journal_append_ms_p50", "ms", "lower"),
    ("serve.journal_bytes_per_job", "bytes", "lower"),
    ("serve.plan_us", "us", "lower"),
    ("perf.timer_span_us", "us", "lower"),
    ("perf.profile_leaf_coverage", "ratio", "higher"),
    ("perf.profile_vs_trace_ratio", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.simulate_cold_s", "s", "lower"),
    ("cli.machine_cold_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document this table implies."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

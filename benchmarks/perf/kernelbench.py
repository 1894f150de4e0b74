"""Bottom layer: every ``KernelSuite`` entry point, alone, on real shapes.

Arguments are *captured* from a running engine (one cycle of
``machine64`` or ``ensemble8`` with recording shims on the suite
instance), so each primitive is timed on exactly the array shapes the
workload feeds it.  Each is run on the NumPy tier, the compiled tier
(T=1) and the compiled tier with two threads, and the T=1 rate is
placed against a memcpy roofline measured in the same run.

Bytes moved are *computed* from the argument array sizes — they ignore
cache misses and re-reads — and are labelled so wherever they appear.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

import probe as hostprobe
from metrics import KERNEL_PRIMS

#: Per (primitive, tier): at least this many repetitions, then until
#: this much time is spent.
_MIN_REPS = 3
_BUDGET_S = 0.25


def capture(suite, run_one_cycle) -> dict[str, tuple]:
    """Record the first call's arguments of every primitive during one cycle.

    Recording shims are set as *instance* attributes on the (shared)
    suite object and removed again before returning; arrays are copied
    so later steps cannot change what was captured.
    """
    captured: dict[str, tuple] = {}

    def shim(prim, orig):
        def recording(*args):
            if prim not in captured:
                captured[prim] = tuple(
                    a.copy() if isinstance(a, np.ndarray) else a for a in args
                )
            return orig(*args)

        return recording

    prims = [p for p in KERNEL_PRIMS if hasattr(suite, p)]
    for prim in prims:
        setattr(suite, prim, shim(prim, getattr(suite, prim)))
    try:
        run_one_cycle()
    finally:
        for prim in prims:
            delattr(suite, prim)
    if "pair_table_codes" in captured:
        # Engines pass oversized output scratch; the NumPy tier wants
        # outputs of exactly len(i).
        *ins, codes, e_lj, e_coul = captured["pair_table_codes"]
        n = len(ins[1])
        captured["pair_table_codes"] = (*ins, codes[:n].copy(), e_lj[:n].copy(),
                                        e_coul[:n].copy())
    if "mesh_spread" in captured and "scatter_add" not in captured:
        # No engine path calls scatter_add today; time it on the same
        # scatter the mesh spread performs (keys = stencil indices).
        acc, flat, w2, qc = captured["mesh_spread"]
        codes = np.rint(w2 * qc[:, None]).astype(np.int64).ravel()
        captured["scatter_add"] = (
            np.zeros_like(acc), flat.astype(np.int64).ravel(), codes)
    return captured


def _items(prim: str, args: tuple) -> int:
    if prim in ("pair_filter", "pair_table_codes", "deposit_pairs", "scatter_add"):
        return len(args[1])  # candidate pairs / pairs / pairs / keys
    if prim == "mesh_plan_block":
        return int(args[12].size)  # the (n, kx, ky, kz) weight cube
    if prim == "mesh_spread":
        return int(args[1].size)
    # shake_batch / rattle_batch: replicas x constraints
    solver, nrep = args[0], args[4]
    return int(nrep) * int(solver.n_constraints)


def _computed_bytes(args: tuple) -> int:
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray))


def _time(fn, pristine: tuple) -> float:
    """Best wall seconds of ``fn(*args)``; arguments restored (untimed)
    before every repetition because several primitives update in place
    (a second SHAKE of already-constrained positions converges at once)."""
    work = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in pristine)
    best = float("inf")
    spent = 0.0
    reps = 0
    while reps < _MIN_REPS or spent < _BUDGET_S:
        for dst, src in zip(work, pristine):
            if isinstance(dst, np.ndarray):
                np.copyto(dst, src)
        t0 = perf_counter()
        fn(*work)
        dt = perf_counter() - t0
        best = min(best, dt)
        spent += dt
        reps += 1
        if reps >= 200:
            break
    return best


def run(captured: dict[str, tuple], res) -> dict[str, float]:
    """Microbench every captured primitive; returns layer metrics."""
    from repro.kernels import get_suite

    out: dict[str, float] = {}
    gbps, array_bytes, llc = hostprobe.memcpy_gb_per_s()
    out["host.memcpy_gb_per_s"] = gbps
    res.notes.append(
        f"memcpy roofline: {gbps:.2f} GB/s (read+write) on two arrays of "
        f"{array_bytes / 2**20:.0f} MiB each; last-level cache {llc / 2**20:.0f} MiB"
        + ("" if not llc or array_bytes >= 4 * llc else
           " — arrays SMALLER than 4x LLC (memory-capped), roofline is optimistic")
    )
    nproc = os.cpu_count() or 1
    tiers = [("numpy", get_suite("numpy")), ("compiled", get_suite("compiled", 1))]
    if nproc >= 2:
        tiers.append(("compiled_t2", get_suite("compiled", 2)))
        res.notes.append(
            f"compiled_t2 rates: host has {nproc} vCPUs that visibly slow each "
            "other; thread scaling beyond T=2 is not measured"
        )
    else:
        res.notes.append("compiled_t2 rates: not measured (host has 1 CPU)")
    for prim, args in captured.items():
        items = _items(prim, args)
        for tier, suite in tiers:
            seconds = _time(getattr(suite, prim), args)
            out[f"kernels.{prim}.{tier}.mitems_per_s"] = items / seconds / 1e6
            if tier == "compiled":
                out[f"kernels.{prim}.roofline_frac"] = (
                    _computed_bytes(args) / seconds / (gbps * 1e9))
    return out

"""Buffered Verlet-list throughput on a >=5k-atom water box.

Measures repeated range-limited force evaluations — the component the
neighbor list feeds — two ways, both on the NumPy tier:

* ``fresh_rebuild``  — per-step rebuild with the vectorized cell engine;
* ``buffered``       — the skin-buffered :class:`NeighborList`, which
  reuses its cached pair list across evaluations.

This is a reuse-vs-rebuild ratio, not a rebuild timing: for what one
rebuild costs on either kernel tier (``geometry.neighbor_build_ms_p50``,
``geometry.rebuild_share``) read ``benchmarks/perf`` (``run.py
--workload machine64 --trace 1``).

Positions are jittered a few hundredths of an angstrom per evaluation
(a realistic per-step thermal displacement, well under ``skin/2``), so
the buffered path exercises its displacement check but keeps its list.
Writes ``results/BENCH_neighborlist.json`` with evaluations/sec so
later PRs have a perf baseline, and asserts the headline claim:
buffered beats the per-step rebuild by >= 1.5x.
"""

import json
import time

import numpy as np

from repro.forcefield import nonbonded_real_space
from repro.geometry import NeighborList, neighbor_pairs
from repro.systems import build_water_box

N_MOLECULES = 1800      # 5400 atoms
CUTOFF = 9.0
SKIN = 2.0
N_EVAL = 24             # one Verlet-list lifetime at this jitter
JITTER = 0.02           # A per evaluation; worst-case drift < skin/2


def _measure(system, pair_source, assume_filtered):
    """Evaluations/sec of pair production + nonbonded kernels."""
    rng = np.random.default_rng(5)
    from repro.ewald import choose_sigma

    sigma = choose_sigma(CUTOFF, 1e-5)
    pos = system.positions.copy()
    n_pairs = 0
    t0 = time.perf_counter()
    for _ in range(N_EVAL):
        pos = system.box.wrap(pos + rng.uniform(-JITTER, JITTER, pos.shape))
        pairs = pair_source(pos)
        nb = nonbonded_real_space(
            pairs,
            system.charges,
            system.type_ids,
            system.lj,
            system.exclusions,
            sigma,
            lj_mode="cutoff",
            assume_filtered=assume_filtered,
        )
        n_pairs = nb.n_pairs
    elapsed = time.perf_counter() - t0
    return N_EVAL / elapsed, n_pairs


def test_bench_neighborlist(record_table, results_dir):
    system = build_water_box(n_molecules=N_MOLECULES, seed=101)
    assert system.n_atoms >= 5000
    box = system.box

    nl = NeighborList(box, CUTOFF, skin=SKIN, exclusions=system.exclusions)
    rate_fresh, pairs_fresh = _measure(
        system, lambda p: neighbor_pairs(p, box, CUTOFF), False
    )
    rate_buffered, pairs_buffered = _measure(system, nl.pairs, True)

    assert pairs_fresh == pairs_buffered  # same physics
    assert nl.n_builds == 1 and nl.n_reuses == N_EVAL - 1

    result = {
        "n_atoms": system.n_atoms,
        "box_side_A": float(box.lengths[0]),
        "cutoff_A": CUTOFF,
        "skin_A": SKIN,
        "evaluations": N_EVAL,
        "n_pairs_within_cutoff": int(pairs_buffered),
        "n_cached_candidates": nl.n_candidates,
        "evals_per_sec": {
            "fresh_rebuild": rate_fresh,
            "buffered": rate_buffered,
        },
        "speedup_buffered_vs_fresh_rebuild": rate_buffered / rate_fresh,
    }
    (results_dir / "BENCH_neighborlist.json").write_text(json.dumps(result, indent=2) + "\n")

    record_table(
        "bench_neighborlist",
        [
            f"Buffered Verlet list, {system.n_atoms} atoms, cutoff {CUTOFF} A, skin {SKIN} A",
            f"pairs within cutoff: {pairs_buffered}, cached candidates: {nl.n_candidates}",
            f"fresh rebuild (vec) : {rate_fresh:8.2f} evals/s",
            f"buffered            : {rate_buffered:8.2f} evals/s "
            f"({rate_buffered / rate_fresh:.1f}x vs vectorized rebuild)",
        ],
    )

    assert result["speedup_buffered_vs_fresh_rebuild"] >= 1.5

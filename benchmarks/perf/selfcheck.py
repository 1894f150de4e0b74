"""``--selfcheck K``: do two sets of runs of the same code agree?

Two sets (A, then B) of K end-to-end passes of this checkout; a pass
runs the four workloads one after another, so the sets interleave
workloads the way the acceptance driver does.  Pass ``k`` uses seed
``base + k`` in both sets, which makes every exact count comparable
pairwise.  For each workload and end-to-end metric the report gives
both sets' quartiles and the relative gap between the set medians, in
the direction that counts as "worse", against the metric's bound.

Exit status is non-zero when a gap exceeds its bound, a check failed,
or an exact count differed between the two sets.
"""

from __future__ import annotations

import metrics
from common import parse_counts, quartiles, spawn_workload


def main(k: int, base_seed: int, seconds: float, quick: bool) -> int:
    names = [name for name, _why in metrics.WORKLOADS]
    sets: dict[str, dict[str, dict[str, list[float]]]] = {
        s: {w: {m[0]: [] for m in metrics.END_TO_END} for w in names} for s in "AB"
    }
    counts: dict[str, dict[tuple[str, int], dict]] = {"A": {}, "B": {}}
    bad = 0
    for label in "AB":
        for i in range(k):
            for workload in names:
                _code, lines, line = spawn_workload(
                    workload, base_seed + i, seconds, quick=quick)
                cnt = parse_counts(lines)
                if line is None or not line["correct"]:
                    print("\n".join(lines))
                    print(f"set {label} pass {i} {workload}: FAILED "
                          f"({'no result' if line is None else 'check failed'})")
                    bad += 1
                    continue
                for metric, entry in line["metrics"].items():
                    sets[label][workload][metric].append(entry["value"])
                if workload != "serve_mix":  # its counts race with the scheduler
                    counts[label][(workload, i)] = cnt
                print(f"set {label} pass {i} {workload}: " + "  ".join(
                    f"{m}={e['value']:.4g}" for m, e in line["metrics"].items()), flush=True)

    print()
    print(f"# selfcheck: two sets of {k} passes, seeds {base_seed}..{base_seed + k - 1}, "
          f"--seconds {seconds:g}{' (quick sizes: NOT comparable)' if quick else ''}")
    print()
    print("| workload | metric | A q1 / median / q3 | B q1 / median / q3 | "
          "B worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for workload in names:
        for metric, _unit, better, bound in metrics.END_TO_END:
            a, b = sets["A"][workload][metric], sets["B"][workload][metric]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            gap = (qb[1] - qa[1]) / qa[1]
            if better == "higher":
                gap = -gap
            ok = gap <= bound
            bad += not ok
            print(f"| {workload} | {metric} | {qa[0]:.4g} / {qa[1]:.4g} / {qa[2]:.4g} | "
                  f"{qb[0]:.4g} / {qb[1]:.4g} / {qb[2]:.4g} | {gap:+.2%} | {bound:.0%} | "
                  f"{'ok' if ok else 'EXCEEDED'} |")
    print()
    mismatched = [key for key in counts["A"]
                  if key in counts["B"] and counts["A"][key] != counts["B"][key]]
    if mismatched:
        bad += len(mismatched)
        for workload, i in mismatched:
            print(f"exact counts differ between sets: {workload} pass {i}: "
                  f"{counts['A'][(workload, i)]} vs {counts['B'][(workload, i)]}")
    else:
        print(f"exact counts and final-state digests: identical in both sets "
              f"({len(counts['A'])} engine runs compared pairwise)")
    print()
    print("PASS" if not bad else f"FAIL ({bad} problem(s))")
    return 1 if bad else 0

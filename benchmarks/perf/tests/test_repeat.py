"""Exact-count repeatability for a fixed seed, and deterministic sizing."""

import pytest

import common


def quick(workload: str, seed: int) -> tuple[dict, dict]:
    code, lines, line = common.spawn_workload(workload, seed, 4, quick=True)
    assert code == 0 and line is not None, "\n".join(lines)
    return line, common.parse_counts(lines)


@pytest.mark.parametrize("workload", ["machine64", "ensemble8", "solo_io"])
def test_counts_and_final_state_repeat_for_a_fixed_seed(workload):
    first, counts1 = quick(workload, seed=5)
    second, counts2 = quick(workload, seed=5)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] == second["attempted"] >= 1
    assert counts1 == counts2 and "sha256" in counts1
    _other, counts3 = quick(workload, seed=6)
    assert counts3["sha256"] != counts1["sha256"], "--seed does not reach the inputs"


def test_result_line_has_exactly_the_contract_keys():
    line, _ = quick("machine64", seed=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    import metrics

    assert set(line["metrics"]) == {m[0] for m in metrics.END_TO_END}
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0


def test_sizing_is_a_pure_function_of_seconds():
    from workloads import ensemble8, machine64, serve_mix, solo_io

    assert machine64.n_cycles(machine64.FULL, 20) == machine64.n_cycles(machine64.FULL, 20.0)
    assert machine64.n_cycles(machine64.FULL, 1) == machine64.FULL.min_cycles
    assert solo_io.n_cycles(solo_io.FULL, 20) % 20 == 0
    assert serve_mix.n_jobs(serve_mix.FULL, 20) % 4 == 0
    assert ensemble8.n_cycles(ensemble8.FULL, 60) > ensemble8.n_cycles(ensemble8.FULL, 20)
    stream = serve_mix.job_stream(serve_mix.FULL, 3, 24)
    assert stream == serve_mix.job_stream(serve_mix.FULL, 3, 24)
    assert sum(s["priority"] == 5 for s in stream) == 6
    other = serve_mix.job_stream(serve_mix.FULL, 4, 24)
    assert [s["priority"] for s in other] == [s["priority"] for s in stream]
    assert all(a["seed"] != b["seed"] for a, b in zip(stream, other))

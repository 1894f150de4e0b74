"""BENCHMARK.json <-> harness agreement, and the contract's hard limits."""

import json
import re

import metrics
from conftest import PERF

REPO = PERF.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_is_what_the_harness_implies():
    doc = load()
    assert doc == metrics.benchmark_json(doc["run_seconds"])
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}


def test_names_units_and_counts_within_limits():
    doc = load()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for m in doc[key]:
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_end_to_end_bounds_and_setup_metric():
    doc = load()
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_command_and_paths_stay_inside_the_benchmark():
    doc = load()
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert doc["paths"] == ["benchmarks/perf"]
    assert len(doc["command"]) <= 32
    for arg in doc["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert (REPO / doc["command"][1]).is_file()
    assert doc["command"][1].startswith(doc["paths"][0] + "/")


def test_every_reported_layer_metric_is_declared():
    """Workload modules may only fill names the table declares."""
    declared = {name for name, _u, _b in metrics.PER_LAYER}
    pattern = re.compile(r'L\["([^"]+)"\]')
    used = set()
    for path in [PERF / "engine.py", *sorted((PERF / "workloads").glob("*.py"))]:
        used |= set(pattern.findall(path.read_text()))
    assert used <= declared, sorted(used - declared)

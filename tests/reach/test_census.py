"""The knob census stays honest.

``tests/reach/knobs.txt`` names every settable value under ``src/repro``
(a defaulted parameter of a top-level function or class method, or a
field of a config dataclass) that the committed ``REPORT.md`` lists as
single-valued across every entry point of ``tests/reach/driver.py``, and
says why it stays a parameter.  Each entry must name a value that still
exists in the AST, carry one of the five categories and a reason, appear
once, and be single-valued in the report; every single-valued row of the
report must exist and have an entry.  A parameter deleted without its
entry, or a new single-valued one without a reason, fails here.
"""

import re
from pathlib import Path

import pytest

from tests.reach.driver import KNOB_CATEGORIES, KNOBS, REPORT, knobs, read_allowlist

SRC = Path(__file__).resolve().parents[2] / "src"
PERF = SRC.parent / "benchmarks" / "perf"

ENTRIES = read_allowlist(KNOBS)
SETTABLE = set(knobs(SRC).values())


def _single_valued_in_report() -> set[str]:
    table = REPORT.read_text().split("### Single-valued parameters", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", table, flags=re.M))


def _parameter(name: str) -> str:
    """The parameter or field a census name ends in."""
    if name.endswith(")"):
        return name.rpartition("(")[2][:-1]
    return name.rpartition(".")[2]


def test_the_knobs_file_has_entries():
    assert KNOBS.exists() and ENTRIES


@pytest.mark.parametrize("name, category, reason", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_entry_is_a_settable_value_with_a_category_and_a_reason(name, category, reason):
    assert name in SETTABLE, f"{name} is no defaulted parameter or config field under src/repro"
    assert category in KNOB_CATEGORIES, f"{name}: category {category!r} is not one of {KNOB_CATEGORIES}"
    assert reason, f"{name}: no reason given"


def test_pinned_entries_are_named_by_the_benchmark():
    perf_text = "\n".join(p.read_text() for p in PERF.rglob("*.py"))
    for name, category, _ in ENTRIES:
        if category == "pinned":
            param = _parameter(name)
            assert re.search(rf"\b{re.escape(param)}\b", perf_text), (
                f"{name} is pinned, but benchmarks/perf never names {param!r}"
            )


def test_each_entry_appears_once():
    names = [name for name, _, _ in ENTRIES]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_every_entry_is_single_valued_in_the_committed_report():
    single = _single_valued_in_report()
    assert sorted(name for name, _, _ in ENTRIES if name not in single) == []


def test_every_single_valued_parameter_in_the_report_still_exists():
    assert sorted(_single_valued_in_report() - SETTABLE) == []


def test_the_report_lists_no_single_valued_parameter_outside_the_knobs_file():
    listed = {name for name, _, _ in ENTRIES}
    assert sorted(_single_valued_in_report() - listed) == []

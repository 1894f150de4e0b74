"""The reachability allowlist stays honest.

``tests/reach/allowlist.txt`` names every function under ``src/repro``
that no entry point of ``tests/reach/driver.py`` calls and that still
stays.  Each entry must resolve to a function defined under
``src/repro``, carry one of the five categories and a reason, appear
once, and be listed as unreached in the committed ``REPORT.md``: a
deletion that leaves its entry behind, or an entry the driver found
reached, fails here.
"""

import ast
import re
from pathlib import Path

import pytest

from tests.reach.driver import ALLOWLIST, CATEGORIES, REPORT, _defs, read_allowlist

SRC = Path(__file__).resolve().parents[2] / "src"
PERF = SRC.parent / "benchmarks" / "perf"

ENTRIES = read_allowlist()


def _defined(name: str) -> bool:
    module, _, qualname = name.partition(":")
    path = SRC / (module.replace(".", "/") + ".py")
    if not path.exists():
        path = SRC / module.replace(".", "/") / "__init__.py"
    if not module.startswith("repro") or not path.exists():
        return False
    return qualname in {q for q, _, _ in _defs(ast.parse(path.read_text()))}


def _unreached_in_report() -> set[str]:
    text = REPORT.read_text()
    table = text.split("## Unreached functions", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", table, flags=re.M))


def test_the_allowlist_has_entries():
    assert ALLOWLIST.exists() and ENTRIES


@pytest.mark.parametrize("name, category, reason", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_entry_is_a_defined_function_with_a_category_and_a_reason(name, category, reason):
    assert _defined(name), f"{name} is not a function or method defined under src/repro"
    assert category in CATEGORIES, f"{name}: category {category!r} is not one of {CATEGORIES}"
    assert reason, f"{name}: no reason given"


def test_pinned_entries_are_named_by_the_benchmark():
    perf_text = "\n".join(p.read_text() for p in PERF.rglob("*.py"))
    for name, category, _ in ENTRIES:
        if category == "pinned":
            attr = name.rpartition(".")[2].rpartition(":")[2]
            assert re.search(rf"\b{re.escape(attr)}\b", perf_text), (
                f"{name} is pinned, but benchmarks/perf never names {attr!r}"
            )


def test_each_entry_appears_once():
    names = [name for name, _, _ in ENTRIES]
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_every_entry_is_unreached_in_the_committed_report():
    unreached = _unreached_in_report()
    reached = [name for name, _, _ in ENTRIES if name not in unreached]
    assert reached == [], "allowlisted but reached (or absent from REPORT.md)"


def test_the_report_lists_no_unreached_function_outside_the_allowlist():
    listed = {name for name, _, _ in ENTRIES}
    assert sorted(_unreached_in_report() - listed) == []

"""Span bookkeeping: nesting, self time, install/uninstall."""

import importlib

import pytest

import trace as perftrace


class _Toy:
    @classmethod
    def make(cls):
        return cls()

    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.setattr(perftrace, "TARGETS", (
        (__name__, "_Toy", "outer", "toy.outer", None),
        (__name__, "_Toy", "inner", "toy.inner", lambda self, result: result),
        (__name__, "_Toy", "make", "toy.make", None),
    ))
    t = perftrace.Tracer("toy")
    yield t
    t.uninstall()


def test_install_wraps_and_uninstall_restores(tracer):
    plain_outer = _Toy.__dict__["outer"]
    tracer.install()
    assert _Toy.__dict__["outer"] is not plain_outer
    assert isinstance(_Toy.__dict__["make"], classmethod)
    assert isinstance(_Toy.make(), _Toy)
    tracer.uninstall()
    assert _Toy.__dict__["outer"] is plain_outer
    before = len(tracer.spans)
    _Toy().outer()
    assert len(tracer.spans) == before


def test_spans_nest_and_self_time_subtracts_children(tracer):
    tracer.install()
    tracer.phase = "window"
    tracer.cycle = 7
    with tracer.span("cycle"):
        assert _Toy().outer() == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["cycle", "toy.outer", "toy.inner", "toy.inner"]
    cycle, outer, inner1, inner2 = tracer.spans
    assert cycle[3] == -1 and outer[3] == 0 and inner1[3] == 1 and inner2[3] == 1
    assert outer[5] == 7 and inner1[6] == 1
    for s in tracer.spans:
        assert s[2] >= s[1]
    self_s = tracer.self_times("window")
    total = lambda s: s[2] - s[1]
    assert self_s["toy.outer"] == pytest.approx(total(outer) - total(inner1) - total(inner2))
    assert self_s["cycle"] == pytest.approx(total(cycle) - total(outer))
    # Self times telescope: they sum to the top-level span.
    assert sum(self_s.values()) == pytest.approx(total(cycle))


def test_phase_filter_and_dump(tracer, tmp_path):
    tracer.install()
    _Toy().inner()
    tracer.phase = "window"
    _Toy().inner()
    assert len(tracer.durations("toy.inner")) == 1
    assert len(tracer.durations("toy.inner", None)) == 2
    out = tmp_path / "trace.json"
    tracer.dump(out, seed=3)
    import json

    doc = json.loads(out.read_text())
    assert doc["workload"] == "toy" and doc["seed"] == 3
    assert len(doc["spans"]) == 2 and doc["spans"][0][1] == 0.0


def test_real_targets_resolve_to_public_callables():
    """Every name in TARGETS exists on the class that defines it."""
    import common

    common.require_repro()
    for module, cls_name, attr, name, _note in importlib.reload(perftrace).TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert attr in cls.__dict__, f"{module}.{cls_name}.{attr}"
        assert not attr.startswith("_") or attr == "__call__"
        assert name.split(".")[0] in {
            "geometry", "ewald", "fft", "machine", "parallel", "core", "ensemble", "io"}

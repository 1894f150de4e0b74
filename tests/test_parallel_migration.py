"""Unit tests for deferred migration."""

import numpy as np
import pytest

from repro.forcefield import Topology
from repro.geometry import Box
from repro.parallel import MigrationSchedule, SpatialDecomposition, TorusTopology


def make_schedule(interval=4):
    box = Box.cubic(16.0)
    decomp = SpatialDecomposition(box, TorusTopology((2, 2, 2)))
    return MigrationSchedule(decomp, Topology(10).compile(), interval=interval), box


class TestMigrationSchedule:
    def test_migrates_only_every_interval(self):
        sched, box = make_schedule(interval=4)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 16, (10, 3))
        sched.initialize(pos)
        events = [sched.step(pos) for _ in range(8)]
        assert [e is not None for e in events] == [False, False, False, True] * 2

    def test_detects_boundary_crossing(self):
        sched, box = make_schedule(interval=2)
        pos = np.full((10, 3), 4.0)
        pos[0] = [7.9, 4.0, 4.0]  # near the x boundary at 8.0
        sched.initialize(pos)
        owner_before = sched.owners[0]
        pos[0, 0] = 8.1  # crossed
        sched.step(pos)
        ev = sched.step(pos)
        assert ev.n_migrated == 1
        assert sched.owners[0] != owner_before

    def test_stale_ownership_between_migrations(self):
        sched, box = make_schedule(interval=4)
        pos = np.full((10, 3), 4.0)
        sched.initialize(pos)
        pos[0, 0] = 9.0  # crossed immediately
        sched.step(pos)
        # Owner not yet updated (that's the design).
        assert sched.owners[0] == sched.decomp.node_of(np.full((1, 3), 4.0))[0]

    def test_import_margin_grows_with_interval(self):
        s2, _ = make_schedule(interval=2)
        s8, _ = make_schedule(interval=8)
        assert s8.import_margin() > s2.import_margin()

    def test_margin_includes_constraint_extent(self):
        box = Box.cubic(16.0)
        decomp = SpatialDecomposition(box, TorusTopology((2, 2, 2)))
        top = Topology(3)
        top.add_constraint(0, 1, 1.0)
        top.add_constraint(0, 2, 1.0)
        sched = MigrationSchedule(decomp, top.compile(), interval=4)
        pos = np.array([[4.0, 4.0, 4.0], [5.5, 4.0, 4.0], [4.0, 5.0, 4.0]])
        assert sched.import_margin(pos) == pytest.approx(sched.import_margin() + 1.5)

    def test_requires_initialize(self):
        sched, _ = make_schedule()
        with pytest.raises(RuntimeError):
            sched.step(np.zeros((10, 3)))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            make_schedule(interval=0)

    def test_total_migrated_accumulates(self):
        sched, _ = make_schedule(interval=1)
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 16, (10, 3))
        sched.initialize(pos)
        total = 0
        for _ in range(5):
            pos = (pos + rng.uniform(-2, 2, pos.shape)) % 16.0
            ev = sched.step(pos)
            total += ev.n_migrated
        assert sum(e.n_migrated for e in sched.events) == total

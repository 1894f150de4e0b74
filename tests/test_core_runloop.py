"""The one run loop: cadences, write order, the step bracket.

A fake engine records what the loop asks of it, so the order of
effects is checked directly: every cadence keyed to the global step,
frames flushed before a checkpoint lands, a bracket that can rewind a
step or suppress its output.
"""

from types import SimpleNamespace

from repro.core.runloop import run_loop
from repro.perf import Timers


class FakeEngine:
    io_phase = "fake_io"

    def __init__(self, replicas=1, start=0):
        self.replicas = replicas
        self.integrator = SimpleNamespace(step_count=start)
        self.timers = Timers()
        self.log = []
        self.energy_steps = []

    def advance(self, energies):
        self.integrator.step_count += 1
        if energies:
            self.energy_steps.append(self.integrator.step_count)

    def record_energy(self):
        return [(r, self.integrator.step_count) for r in range(self.replicas)]

    def write_replica_frame(self, writer, r):
        writer.log.append(("frame", r, self.integrator.step_count))

    def replica_checkpoint(self, r):
        return {"lane": r, "step": self.integrator.step_count}


class Sink:
    """Trajectory writer, energy writer and checkpoint store in one."""

    def __init__(self, log):
        self.log = log

    def write(self, rec):
        self.log.append(("record", *rec))

    def flush(self):
        self.log.append(("flush",))

    def save(self, state, step):
        self.log.append(("save", state["lane"], step))


def test_frames_are_flushed_before_the_checkpoint_lands():
    eng = FakeEngine()
    sink = Sink(eng.log)
    run_loop(eng, 4, trajectories=[sink], trajectory_every=2,
             checkpoint_stores=[sink], checkpoint_every=4)
    assert eng.log == [("frame", 0, 2), ("frame", 0, 4), ("flush",), ("save", 0, 4)]
    assert set(eng.timers.elapsed) == {"fake_io"}


def test_every_cadence_is_keyed_to_the_global_step():
    eng = FakeEngine(start=6)  # as after a resume from a step-6 checkpoint
    sink = Sink(eng.log)
    sampled = []
    records = run_loop(
        eng, 6, record_every=4, energy_writers=[sink], trajectories=[sink],
        trajectory_every=3, checkpoint_stores=[sink], checkpoint_every=5,
        sample_every=4, sample=sampled.append,
    )
    assert records == [[(0, 8), (0, 12)]]
    assert eng.energy_steps == [8, 12]  # energies asked for on the recorded steps only
    assert sampled == [8, 12]
    assert eng.log == [
        ("record", 0, 8), ("frame", 0, 9), ("flush",), ("save", 0, 10),
        ("record", 0, 12), ("frame", 0, 12),
    ]


def test_lanes_without_a_sink_are_skipped():
    eng = FakeEngine(replicas=3)
    sink = Sink(eng.log)
    records = run_loop(eng, 2, record_every=2, energy_writers=[None, sink, None],
                       trajectories=[sink, None, sink], trajectory_every=2,
                       checkpoint_stores=[None, None, sink], checkpoint_every=2)
    assert [len(lane) for lane in records] == [1, 1, 1]
    assert eng.log == [("record", 1, 2), ("frame", 0, 2), ("frame", 2, 2),
                       ("flush",), ("flush",), ("save", 2, 2)]


def test_bracket_rewinds_a_step_and_suppresses_replayed_output():
    eng = FakeEngine()
    sink = Sink(eng.log)

    class Bracket:
        """Step 3 fails once and rolls back to step 1; step 2 is then a
        replay whose output already exists."""

        failed = False

        def begin_step(self, engine, step):
            eng.log.append(("begin", step))

        def end_step(self, engine, step):
            if step == 3 and not self.failed:
                self.failed = True
                engine.integrator.step_count = 1
                return True
            return self.failed and step == 2

        def after_io(self, engine, step):
            eng.log.append(("after_io", step))

    run_loop(eng, 3, trajectories=[sink], trajectory_every=1, bracket=Bracket())
    assert eng.integrator.step_count == 3
    assert [e for e in eng.log if e[0] == "frame"] == [
        ("frame", 0, 1), ("frame", 0, 2), ("frame", 0, 3)]
    assert [e[1] for e in eng.log if e[0] == "begin"] == [1, 2, 3, 2, 3]
    assert [e[1] for e in eng.log if e[0] == "after_io"] == [1, 2, 3]

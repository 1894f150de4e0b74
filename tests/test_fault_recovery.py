"""Unit tests for fault detection, injection, and recovery plumbing."""

import numpy as np
import pytest

from repro.fault import (
    Anomaly,
    BarrierDetector,
    FaultController,
    FaultEvent,
    FaultSchedule,
    FaultyNetwork,
    HeartbeatBoard,
    MemorySnapshotStore,
    RecoveryPolicy,
    StepLedger,
    message_checksums,
)
from repro.io.checkpoint import CheckpointError
from repro.parallel.topology import TorusTopology


def make_ledger(step=3):
    ledger = StepLedger(step)
    ledger.record("bonds", src=0, dst=1, nbytes=100)
    ledger.record("mesh", src=2, dst=3, nbytes=50)
    ledger.record("bonds", src=1, dst=0, nbytes=80)
    return ledger


class TestChecksums:
    def test_deterministic(self):
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)
        nbytes = np.array([100, 50], dtype=np.int64)
        seq = np.arange(2, dtype=np.uint64)
        a = message_checksums(src, dst, nbytes, 7, seq)
        b = message_checksums(src, dst, nbytes, 7, seq)
        assert np.array_equal(a, b)

    def test_sensitive_to_every_field(self):
        base = message_checksums(0, 1, 100, 7, np.uint64(0))
        assert base != message_checksums(1, 1, 100, 7, np.uint64(0))
        assert base != message_checksums(0, 2, 100, 7, np.uint64(0))
        assert base != message_checksums(0, 1, 101, 7, np.uint64(0))
        assert base != message_checksums(0, 1, 100, 8, np.uint64(0))
        assert base != message_checksums(0, 1, 100, 7, np.uint64(1))


class TestStepLedger:
    def test_canonical_order_independent_of_record_order(self):
        # The same wire traffic charged as a send loop vs a batch must
        # produce the identical canonical ledger — victim selection
        # depends on it.
        a = StepLedger(5)
        a.record("x", src=0, dst=1, nbytes=10)
        a.record("x", src=2, dst=3, nbytes=20)
        a.record("y", src=1, dst=2, nbytes=30)
        b = StepLedger(5)
        b.record("y", src=1, dst=2, nbytes=30)
        b.record("x", src=np.array([2, 0]), dst=np.array([3, 1]), nbytes=np.array([20, 10]))
        for left, right in zip(a.canonical(), b.canonical()):
            if isinstance(left, list):
                assert left == right
            else:
                assert np.array_equal(left, right)

    def test_fresh_image_clean(self):
        image = make_ledger().fresh_image()
        assert np.all(image.copies == 1)
        assert not image.delayed.any()
        assert BarrierDetector().scan(make_ledger(), image) == []

    def test_empty_ledger(self):
        ledger = StepLedger(0)
        assert ledger.n_messages == 0
        assert len(ledger.fresh_image().copies) == 0


class TestBarrierDetector:
    def test_detects_each_anomaly_kind(self):
        ledger = make_ledger()
        image = ledger.fresh_image()
        image.copies[0] = 0  # drop
        image.checksums[1] ^= np.uint64(1)  # corrupt
        image.copies[2] += 1  # duplicate
        anomalies = BarrierDetector().scan(ledger, image)
        assert [a.kind for a in anomalies] == ["missing", "corrupt", "duplicate"]
        assert all(isinstance(a, Anomaly) for a in anomalies)

    def test_delayed_detected(self):
        ledger = make_ledger()
        image = ledger.fresh_image()
        image.delayed[1] = True
        anomalies = BarrierDetector().scan(ledger, image)
        assert [a.kind for a in anomalies] == ["delayed"]

    def test_anomaly_carries_envelope(self):
        ledger = make_ledger()
        image = ledger.fresh_image()
        image.copies[:] = 0
        got = {(a.tag, a.src, a.dst, a.nbytes) for a in BarrierDetector().scan(ledger, image)}
        assert got == {("bonds", 0, 1, 100), ("bonds", 1, 0, 80), ("mesh", 2, 3, 50)}


class TestHeartbeatBoard:
    def test_stall_recovers_after_waits(self):
        board = HeartbeatBoard()
        board.mark_stall(3, waits=2)
        assert not board.poll(3)
        assert board.poll(3)
        assert board.poll(3)  # healthy again

    def test_crash_is_silent_forever(self):
        board = HeartbeatBoard()
        board.mark_crash(5)
        assert all(not board.poll(5) for _ in range(10))
        board.clear(5)
        assert board.poll(5)

    def test_healthy_node_always_answers(self):
        assert HeartbeatBoard().poll(0)


class TestFaultyNetwork:
    def test_ledger_records_remote_primary_only(self):
        net = FaultyNetwork(TorusTopology.cubic(2))
        net.begin_step(1)
        net.send(0, 1, 100, tag="a")
        net.send(2, 2, 100, tag="a")  # local: free, not on the wire
        net.set_recovery(True)
        net.send(0, 1, 100, tag="a")  # recovery traffic
        net.set_recovery(False)
        ledger = net.end_step()
        assert ledger.n_messages == 1

    def test_batch_ledger_matches_loop_ledger(self):
        src = np.array([0, 1, 2, 3], dtype=np.int64)
        dst = np.array([1, 1, 3, 0], dtype=np.int64)
        nbytes = np.array([10, 0, 30, 40], dtype=np.int64)
        loop = FaultyNetwork(TorusTopology.cubic(2))
        loop.begin_step(4)
        for s, d, b in zip(src, dst, nbytes):
            loop.send(int(s), int(d), int(b), tag="t")
        batch = FaultyNetwork(TorusTopology.cubic(2))
        batch.begin_step(4)
        batch.send_batch(src, dst, nbytes, tag="t")
        for left, right in zip(loop.end_step().canonical(), batch.end_step().canonical()):
            if isinstance(left, list):
                assert left == right
            else:
                assert np.array_equal(left, right)

    def test_recovery_mode_swaps_stats(self):
        net = FaultyNetwork(TorusTopology.cubic(2))
        net.send(0, 1, 100, tag="a")
        net.set_recovery(True)
        assert net.in_recovery
        net.send(0, 1, 100, tag="a")
        net.set_recovery(False)
        assert net.primary_stats.messages == 1
        assert net.recovery_stats.messages == 1

    def test_reset_stats_preserves_mode(self):
        net = FaultyNetwork(TorusTopology.cubic(2))
        net.set_recovery(True)
        net.send(0, 1, 100, tag="a")
        net.reset_stats()
        assert net.in_recovery
        assert net.recovery_stats.messages == 0
        assert net.stats is net.recovery_stats

    def test_damage_applies_each_kind(self):
        ledger = make_ledger()
        events = [
            FaultEvent(step=3, kind="drop", index=0),
            FaultEvent(step=3, kind="corrupt", index=1),
            FaultEvent(step=3, kind="duplicate", index=2),
            FaultEvent(step=3, kind="delay", index=1),
        ]
        image = FaultyNetwork.damage(ledger, events)
        assert image.copies[0] == 0
        assert image.checksums[1] != ledger.fresh_image().checksums[1]
        assert image.copies[2] == 2
        assert image.delayed[1]

    def test_damage_victim_wraps_modulo(self):
        ledger = make_ledger()  # 3 messages
        image = FaultyNetwork.damage(ledger, [FaultEvent(step=3, kind="drop", index=7)])
        assert image.copies[7 % 3] == 0


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(checkpoint_every=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(retain=0)


class TestMemorySnapshotStore:
    @staticmethod
    def state(value):
        return {"x": np.full(4, value, dtype=np.int64)}

    def test_save_load_roundtrip(self):
        store = MemorySnapshotStore(retain=2)
        store.save(self.state(1), step=10)
        state, step = store.load_latest()
        assert step == 10
        assert np.array_equal(state["x"], self.state(1)["x"])

    def test_retain_prunes_oldest(self):
        store = MemorySnapshotStore(retain=2)
        for k in range(5):
            store.save(self.state(k), step=k)
        assert store.steps() == [3, 4]

    def test_resave_same_step_replaces(self):
        store = MemorySnapshotStore(retain=3)
        store.save(self.state(1), step=5)
        store.save(self.state(2), step=5)
        assert store.steps() == [5]
        state, _ = store.load_latest()
        assert state["x"][0] == 2

    def test_empty_store_raises(self):
        with pytest.raises(CheckpointError):
            MemorySnapshotStore().load_latest()

    def test_snapshot_immune_to_mutation(self):
        store = MemorySnapshotStore()
        live = self.state(7)
        store.save(live, step=1)
        live["x"][:] = 0
        state, _ = store.load_latest()
        assert np.all(state["x"] == 7)


class TestFaultControllerHealing:
    def make_controller(self, **policy):
        schedule = FaultSchedule(seed=0)
        return FaultController(schedule, policy=RecoveryPolicy(**policy))

    def test_transient_drop_heals_with_one_retry(self):
        fc = self.make_controller(max_retries=3)
        net = FaultyNetwork(TorusTopology.cubic(2))
        anomaly = Anomaly(kind="missing", tag="t", seq=0, src=0, dst=1, nbytes=64)
        assert not fc._heal_message(net, anomaly, persist={0: 0})
        assert fc.counters["retries"] == 1
        assert fc.counters["retransmitted_bytes"] == 64
        assert net.primary_stats.messages == 0  # retransmit never hits primary
        assert net.recovery_stats.by_tag["t"] == (1, 64)
        assert not net.in_recovery

    def test_persistent_fault_escalates_to_link_failure(self):
        fc = self.make_controller(max_retries=2)
        net = FaultyNetwork(TorusTopology.cubic(2))
        anomaly = Anomaly(kind="corrupt", tag="t", seq=0, src=0, dst=1, nbytes=64)
        assert fc._heal_message(net, anomaly, persist={0: 99})
        assert fc.counters["retries"] == 2
        assert fc.counters["link_failures"] == 1

    def test_duplicate_discarded_without_retry(self):
        fc = self.make_controller()
        net = FaultyNetwork(TorusTopology.cubic(2))
        anomaly = Anomaly(kind="duplicate", tag="t", seq=0, src=0, dst=1, nbytes=64)
        assert not fc._heal_message(net, anomaly, persist={})
        assert fc.counters["duplicates_discarded"] == 1
        assert fc.counters["retries"] == 0

    def test_stalled_node_waited_out(self):
        fc = self.make_controller(max_retries=4)
        fc.heartbeats.mark_stall(2, waits=2)
        assert not fc._await_heartbeat(2)
        # waits=2 silent polls: the first misses, the second answers.
        assert fc.counters["barrier_timeouts"] == 1

    def test_crashed_node_declared_dead(self):
        fc = self.make_controller(max_retries=3)
        fc.heartbeats.mark_crash(2)
        assert fc._await_heartbeat(2)
        assert fc.counters["barrier_timeouts"] == 3

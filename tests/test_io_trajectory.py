"""Unit tests for trajectory files: round-trip, recovery, append."""

import numpy as np
import pytest

from repro.io import CorruptRecord, TrajectoryReader, TrajectoryWriter

FP = {"version": 1, "n_atoms": 4, "mode": "fixed", "dt": 1.0}
DECODE = {
    "storage": "codes",
    "position_bits": 40,
    "box": [10.0, 10.0, 10.0],
    "velocity_bits": 40,
    "velocity_limit": 0.25,
}


def make_codes(step, n=4):
    rng = np.random.default_rng(step)
    x = rng.integers(0, 2**40, size=(n, 3))
    v = rng.integers(-(2**30), 2**30, size=(n, 3))
    return x, v


def write_file(path, steps, close=True):
    w = TrajectoryWriter(path, fingerprint=FP, decode=DECODE, meta={"note": "test"})
    for s in steps:
        x, v = make_codes(s)
        w.write_frame(s, float(s), {"X": x, "V": v})
    if close:
        w.close()
    else:
        w.flush()
        w._f.close()  # simulate a crash: no index, no trailer
    return path


class TestTrajectoryRoundTrip:
    def test_frames_round_trip_bitwise(self, tmp_path):
        path = write_file(tmp_path / "t.rrs", [2, 4, 6])
        with TrajectoryReader(path) as r:
            assert len(r) == 3
            assert not r.index_rebuilt
            assert list(r.steps) == [2, 4, 6]
            assert r.meta == {"note": "test"}
            for i, s in enumerate([2, 4, 6]):
                frame = r.frame(i)
                x, v = make_codes(s)
                assert frame.step == s
                np.testing.assert_array_equal(frame.arrays["X"], x)
                np.testing.assert_array_equal(frame.arrays["V"], v)

    def test_negative_index_and_out_of_range(self, tmp_path):
        path = write_file(tmp_path / "t.rrs", [1, 2, 3])
        with TrajectoryReader(path) as r:
            assert r.frame(-1).step == 3
            with pytest.raises(IndexError):
                r.frame(3)

    def test_position_decode_matches_codec(self, tmp_path):
        from repro.geometry import Box, PositionCodec

        path = write_file(tmp_path / "t.rrs", [5])
        codec = PositionCodec(Box.cubic(10.0))
        with TrajectoryReader(path) as r:
            frame = r.frame(0)
            np.testing.assert_array_equal(
                r.positions(frame), codec.decode(frame.arrays["X"])
            )

    def test_positions_of_another_width_are_refused(self, tmp_path):
        """Positions are 40-bit codes; a file whose header stores another
        width is refused, not decoded at the wrong scale."""
        from repro.io import FingerprintMismatch

        path = tmp_path / "t.rrs"
        w = TrajectoryWriter(path, fingerprint=FP, decode={**DECODE, "position_bits": 32})
        w.write_frame(1, 1.0, dict(zip("XV", make_codes(1))))
        w.close()
        with TrajectoryReader(path) as r:
            with pytest.raises(FingerprintMismatch, match="32-bit"):
                r.positions(r.frame(0))

    def test_verify_clean_file(self, tmp_path):
        path = write_file(tmp_path / "t.rrs", [1, 2])
        with TrajectoryReader(path) as r:
            report = r.verify()
        assert report.ok
        assert report.n_frames == 2


class TestCrashRecovery:
    def test_unclosed_file_index_rebuilt(self, tmp_path):
        path = write_file(tmp_path / "t.rrs", [1, 2, 3], close=False)
        with TrajectoryReader(path) as r:
            assert r.index_rebuilt
            assert list(r.steps) == [1, 2, 3]
            report = r.verify()
            assert not report.index_ok  # no index record on disk
            assert report.n_frames == 3

    def test_torn_tail_dropped(self, tmp_path):
        path = write_file(tmp_path / "t.rrs", [1, 2, 3], close=False)
        raw = path.read_bytes()
        path.write_bytes(raw[:-11])  # SIGKILL mid-frame-write
        with TrajectoryReader(path) as r:
            assert r.index_rebuilt
            assert list(r.steps) == [1, 2]
            report = r.verify()
            assert not report.clean_tail

    def test_unreadable_header_raises(self, tmp_path):
        path = tmp_path / "t.rrs"
        path.write_bytes(b"not a trajectory")
        with pytest.raises(CorruptRecord):
            TrajectoryReader(path)


class TestAppend:
    def test_append_after_crash_equals_uninterrupted(self, tmp_path):
        # Uninterrupted reference file.
        ref = write_file(tmp_path / "ref.rrs", [1, 2, 3, 4])

        # Crashed file: frames 1..3 on disk, frame 3 torn, no index.
        crashed = write_file(tmp_path / "crash.rrs", [1, 2, 3], close=False)
        raw = crashed.read_bytes()
        crashed.write_bytes(raw[:-7])

        # Resume from step 2 (frame 3 was past the durable checkpoint).
        w = TrajectoryWriter.append(crashed, fingerprint=FP, resume_step=2)
        assert w.n_frames == 2
        for s in (3, 4):
            x, v = make_codes(s)
            w.write_frame(s, float(s), {"X": x, "V": v})
        w.close()

        assert crashed.read_bytes() == ref.read_bytes()

    def test_append_cleanly_closed_file(self, tmp_path):
        # Appending to a closed file rewrites its index and trailer.
        ref = write_file(tmp_path / "ref.rrs", [1, 2, 3])
        path = write_file(tmp_path / "t.rrs", [1, 2])
        w = TrajectoryWriter.append(path, fingerprint=FP)
        x, v = make_codes(3)
        w.write_frame(3, 3.0, {"X": x, "V": v})
        w.close()
        assert path.read_bytes() == ref.read_bytes()

    def test_append_rejects_wrong_fingerprint(self, tmp_path):
        from repro.io import FingerprintMismatch

        path = write_file(tmp_path / "t.rrs", [1])
        with pytest.raises(FingerprintMismatch):
            TrajectoryWriter.append(path, fingerprint=dict(FP, n_atoms=9))

"""Seekable, CRC-protected, bit-exact trajectory files.

A trajectory file is a header record, a sequence of frame records, and
(when closed cleanly) an index record plus trailer for O(1) random
access (see :mod:`repro.io.records` for the framing).  Frames store
the *raw integer state codes* of the fixed-point path — the quantities
the paper's determinism guarantees are about — so reading a frame back
reproduces the run's state bit for bit; the float path stores raw
float64 arrays, which round-trip exactly too.

Crash tolerance: a writer killed mid-frame leaves a torn tail that the
reader detects by CRC and drops, keeping every complete frame.
:meth:`TrajectoryWriter.append` reopens such a file, truncates the torn
tail (and, on resume, any frames past the restored step), and continues
writing — so an interrupted-then-resumed run ends with a trajectory
file *byte-identical* to an uninterrupted one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.fixedpoint import FixedFormat, ScaledFixed
from repro.geometry import POSITION_BITS, Box, PositionCodec
from repro.io.records import (
    REC_FRAME,
    REC_HEADER,
    REC_INDEX,
    TRAILER_SIZE,
    CorruptRecord,
    read_record,
    read_record_at,
    read_trailer,
    scan_records,
    write_record,
    write_trailer,
)
from repro.io.serialize import FingerprintMismatch, check_fingerprint, pack_state, unpack_state

__all__ = ["Frame", "TrajectoryWriter", "TrajectoryReader", "VerifyReport"]


@dataclass(frozen=True)
class Frame:
    """One stored time point: step metadata plus the exact state arrays."""

    step: int
    time_fs: float
    arrays: dict


def _decode_positions(codes: np.ndarray, bits: int, box_lengths) -> np.ndarray:
    """``PositionCodec.decode`` of stored codes, which must have its width."""
    if bits != POSITION_BITS:
        raise FingerprintMismatch(
            f"trajectory stores {bits}-bit position codes; position_bits is {POSITION_BITS}"
        )
    return PositionCodec(Box(np.asarray(box_lengths, dtype=np.float64))).decode(codes)


class TrajectoryWriter:
    """Streams frames to disk; index + trailer are written at close.

    Parameters
    ----------
    fingerprint:
        :func:`~repro.io.serialize.system_fingerprint` of the producing
        run, validated when the file is later appended to or analyzed.
    decode:
        How to map stored arrays back to physical values, e.g.
        ``{"storage": "codes", "position_bits": 40, "box": [...],
        "velocity_bits": 40, "velocity_limit": 0.25}`` for the
        fixed-point path or ``{"storage": "float", "box": [...]}``.
    """

    def __init__(self, path, fingerprint: dict | None = None,
                 decode: dict | None = None, meta: dict | None = None):
        self.path = os.fspath(path)
        self._f = open(self.path, "wb")
        self.header = {
            "kind": "trajectory",
            "version": 1,
            "fingerprint": fingerprint or {},
            "decode": decode or {},
            "meta": meta or {},
        }
        write_record(self._f, REC_HEADER, pack_state(self.header))
        self._offsets: list[int] = []
        self._steps: list[int] = []
        self._closed = False

    @classmethod
    def append(cls, path, fingerprint: dict | None = None,
               resume_step: int | None = None) -> "TrajectoryWriter":
        """Reopen an existing trajectory to continue writing.

        Scans the file, keeps every intact frame whose step does not
        exceed ``resume_step`` (all intact frames when None), truncates
        everything after the last kept frame — torn tails from a crash,
        stale index/trailer from a clean close, frames the interrupted
        run wrote past its last durable checkpoint — and appends from
        there.
        """
        f = open(path, "r+b")
        try:
            try:
                rtype, payload = read_record_at(f, 0)
            except (EOFError, CorruptRecord) as exc:
                raise CorruptRecord(f"{path}: unreadable trajectory header: {exc}") from exc
            if rtype != REC_HEADER:
                raise CorruptRecord(f"{path}: first record is not a header")
            header = unpack_state(payload)
            if fingerprint is not None and header.get("fingerprint"):
                check_fingerprint(header["fingerprint"], fingerprint, what="trajectory")
            keep_end = f.tell()
            offsets, steps = [], []
            for offset, end, rtype, payload in scan_records(f, keep_end):
                if rtype != REC_FRAME:
                    break  # index record from a clean close: rewrite it
                frame = unpack_state(payload)
                if resume_step is not None and frame["step"] > resume_step:
                    break
                offsets.append(offset)
                steps.append(frame["step"])
                keep_end = end
            f.seek(keep_end)
            f.truncate(keep_end)
        except BaseException:
            f.close()
            raise
        writer = cls.__new__(cls)
        writer.path = os.fspath(path)
        writer._f = f
        writer.header = header
        writer._offsets = offsets
        writer._steps = steps
        writer._closed = False
        return writer

    @property
    def n_frames(self) -> int:
        return len(self._offsets)

    def write_frame(self, step: int, time_fs: float, arrays: dict) -> None:
        payload = pack_state({"step": int(step), "time_fs": float(time_fs),
                              "arrays": dict(arrays)})
        offset = write_record(self._f, REC_FRAME, payload)
        self._offsets.append(offset)
        self._steps.append(int(step))

    def flush(self) -> None:
        self._f.flush()

    def close(self) -> None:
        """Write the frame index and trailer, fsync, and close."""
        if self._closed:
            return
        index = {
            "offsets": np.asarray(self._offsets, dtype=np.int64),
            "steps": np.asarray(self._steps, dtype=np.int64),
        }
        index_offset = write_record(self._f, REC_INDEX, pack_state(index))
        write_trailer(self._f, index_offset)
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class VerifyReport:
    """Result of a full-file integrity scan."""

    n_frames: int = 0
    header_ok: bool = False
    index_ok: bool = False
    clean_tail: bool = True
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.header_ok and self.index_ok and self.clean_tail and not self.errors


class TrajectoryReader:
    """Random-access reader with crash-tolerant index recovery.

    Opens via the trailer + index when the file was closed cleanly;
    otherwise rebuilds the index with a forward scan, dropping any torn
    tail (``index_rebuilt`` is True in that case).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._f = open(self.path, "rb")
        try:
            rtype, payload = read_record_at(self._f, 0)
        except (EOFError, CorruptRecord) as exc:
            self._f.close()
            raise CorruptRecord(f"{self.path}: unreadable trajectory header: {exc}") from exc
        if rtype != REC_HEADER:
            self._f.close()
            raise CorruptRecord(f"{self.path}: first record is not a header")
        self.header = unpack_state(payload)
        self._frames_start = self._f.tell()
        self.index_rebuilt = not self._load_index()

    def _load_index(self) -> bool:
        index_offset = read_trailer(self._f)
        if index_offset is not None:
            try:
                rtype, payload = read_record_at(self._f, index_offset)
            except CorruptRecord:
                rtype = None
            if rtype == REC_INDEX:
                index = unpack_state(payload)
                self._offsets = index["offsets"]
                self._steps = index["steps"]
                return True
        offsets, steps = [], []
        for offset, _end, rtype, payload in scan_records(self._f, self._frames_start):
            if rtype != REC_FRAME:
                continue
            offsets.append(offset)
            steps.append(unpack_state(payload)["step"])
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._steps = np.asarray(steps, dtype=np.int64)
        return False

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def steps(self) -> np.ndarray:
        """Stored step numbers, in file order."""
        return np.asarray(self._steps, dtype=np.int64).copy()

    @property
    def fingerprint(self) -> dict:
        return self.header.get("fingerprint", {})

    @property
    def decode(self) -> dict:
        return self.header.get("decode", {})

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})

    def frame(self, i: int) -> Frame:
        """Random-access read of frame ``i`` (negative indices allowed)."""
        n = len(self._offsets)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"frame {i} out of range [0, {n})")
        rtype, payload = read_record_at(self._f, int(self._offsets[i]))
        if rtype != REC_FRAME:
            raise CorruptRecord(f"record at indexed offset {self._offsets[i]} is not a frame")
        data = unpack_state(payload)
        return Frame(step=data["step"], time_fs=data["time_fs"], arrays=data["arrays"])

    def __iter__(self):
        for i in range(len(self)):
            yield self.frame(i)

    # -- decoding ------------------------------------------------------------

    def positions(self, frame: Frame) -> np.ndarray:
        """Physical float64 positions of a frame (bit-exact decode)."""
        dec = self.decode
        if dec.get("storage") == "codes":
            return _decode_positions(frame.arrays["X"], dec["position_bits"], dec["box"])
        return np.asarray(frame.arrays["positions"])

    def velocities(self, frame: Frame) -> np.ndarray:
        """Physical float64 velocities of a frame (bit-exact decode)."""
        dec = self.decode
        if dec.get("storage") == "codes":
            codec = ScaledFixed(FixedFormat(dec["velocity_bits"]), dec["velocity_limit"])
            return codec.reconstruct(frame.arrays["V"])
        return np.asarray(frame.arrays["velocities"])

    # -- integrity -----------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Re-scan the whole file, CRC-checking every record."""
        report = VerifyReport(header_ok=True)
        self._f.seek(0, 2)
        size = self._f.tell()
        self._f.seek(self._frames_start)
        saw_index = False
        while True:
            pos = self._f.tell()
            if size - pos == TRAILER_SIZE and read_trailer(self._f) is not None:
                break  # valid trailer: clean end of file
            self._f.seek(pos)
            try:
                rtype, payload = read_record(self._f)
            except EOFError:
                break
            except CorruptRecord as exc:
                report.clean_tail = False
                report.errors.append(f"torn/corrupt record after frame {report.n_frames}: {exc}")
                break
            if rtype == REC_FRAME:
                if saw_index:
                    report.errors.append("frame record after the index")
                try:
                    unpack_state(payload)
                except ValueError as exc:
                    report.errors.append(f"frame {report.n_frames}: {exc}")
                report.n_frames += 1
            elif rtype == REC_INDEX:
                saw_index = True
        report.index_ok = saw_index
        if not saw_index:
            report.errors.append("no index record (file was not closed cleanly)")
        if report.n_frames != len(self._offsets):
            report.errors.append(
                f"index lists {len(self._offsets)} frames, file holds {report.n_frames}"
            )
        return report

    def close(self) -> None:
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

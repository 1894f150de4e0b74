"""Unit tests for the binary record framing layer."""

import io

import pytest

from repro.io.records import (
    REC_FRAME,
    REC_HEADER,
    TRAILER_SIZE,
    CorruptRecord,
    read_record,
    read_record_at,
    read_trailer,
    scan_records,
    write_record,
    write_trailer,
)


class TestRecords:
    def test_round_trip(self):
        f = io.BytesIO()
        off = write_record(f, REC_HEADER, b"hello")
        assert off == 0
        f.seek(0)
        assert read_record(f) == (REC_HEADER, b"hello")

    def test_clean_eof_raises_eoferror(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"x")
        f.seek(0)
        read_record(f)
        with pytest.raises(EOFError):
            read_record(f)

    def test_torn_header_is_corrupt(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"payload")
        raw = f.getvalue()
        f = io.BytesIO(raw[:10])  # mid-header
        with pytest.raises(CorruptRecord):
            read_record(f)

    def test_torn_payload_is_corrupt(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"payload-bytes")
        raw = f.getvalue()
        f = io.BytesIO(raw[:-4])
        with pytest.raises(CorruptRecord, match="truncated payload"):
            read_record(f)

    def test_flipped_bit_fails_crc(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"payload-bytes")
        raw = bytearray(f.getvalue())
        raw[-3] ^= 0x40
        with pytest.raises(CorruptRecord, match="CRC"):
            read_record(io.BytesIO(bytes(raw)))

    def test_bad_magic(self):
        f = io.BytesIO(b"XXXX" + b"\0" * 30)
        with pytest.raises(CorruptRecord, match="magic"):
            read_record(f)

    def test_scan_stops_at_torn_tail(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"one")
        write_record(f, REC_FRAME, b"two")
        end_intact = f.tell()
        write_record(f, REC_FRAME, b"three")
        raw = f.getvalue()[:-2]  # tear the last record
        got = list(scan_records(io.BytesIO(raw)))
        assert [p for _o, _e, _t, p in got] == [b"one", b"two"]
        assert got[-1][1] == end_intact

    def test_read_record_at(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"one")
        off = write_record(f, REC_FRAME, b"two")
        assert read_record_at(f, off) == (REC_FRAME, b"two")

    def test_trailer_round_trip(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"data")
        idx = write_record(f, REC_FRAME, b"index")
        write_trailer(f, idx)
        assert read_trailer(f) == idx

    def test_trailer_absent_or_torn(self):
        f = io.BytesIO()
        write_record(f, REC_FRAME, b"data")
        assert read_trailer(f) is None
        write_trailer(f, 0)
        raw = bytearray(f.getvalue())
        raw[-1] ^= 0x01  # corrupt the trailer CRC
        assert read_trailer(io.BytesIO(bytes(raw))) is None
        assert len(raw) - len(raw[:-TRAILER_SIZE]) == TRAILER_SIZE


#: A length field no host can allocate, yet no larger than a plain
#: sanity cap lets through (1 TiB): only a bound on the bytes left in
#: the file rejects it before the read tries to allocate it.
_HUGE = 1 << 40


def _bogus_header(rtype=REC_FRAME) -> bytes:
    """A well-formed record header whose payload length is garbage."""
    from repro.io.records import _HEADER, MAGIC

    return _HEADER.pack(MAGIC, rtype, 0, _HUGE)


class TestCorruptLength:
    """A damaged length field is a torn record, never an allocation of it."""

    def _file(self, tmp_path):
        path = tmp_path / "recs.rrs"
        with open(path, "wb") as f:
            write_record(f, REC_FRAME, b"one")
            end = f.tell()
            f.write(_bogus_header() + b"tail")
        return path, end

    def test_read_record(self, tmp_path):
        path, _ = self._file(tmp_path)
        with open(path, "rb") as f:
            assert read_record(f) == (REC_FRAME, b"one")
            with pytest.raises(CorruptRecord, match="truncated payload"):
                read_record(f)

    def test_scan_keeps_the_earlier_record(self, tmp_path):
        path, end = self._file(tmp_path)
        with open(path, "rb") as f:
            got = list(scan_records(f))
        assert [(e, p) for _o, e, _t, p in got] == [(end, b"one")]

    def test_checkpoint_store_falls_back(self, tmp_path):
        import numpy as np

        from repro.io import CheckpointStore
        from repro.io.records import REC_STATE, _HEADER

        store = CheckpointStore(tmp_path)
        store.save({"step_count": 10, "X": np.arange(6)}, 10)
        newest = store.save({"step_count": 20, "X": np.arange(6)}, 20)
        raw = newest.read_bytes()
        with open(newest, "rb") as f:
            state_at = [o for o, _e, _t, _p in scan_records(f)][1]
        newest.write_bytes(
            raw[:state_at] + _bogus_header(REC_STATE) + raw[state_at + _HEADER.size:]
        )
        loaded = store.load_latest()
        assert loaded.step == 10
        assert [p for p, _why in loaded.skipped] == [newest]

    def test_journal_replay_drops_the_tail(self, tmp_path):
        from repro.serve.jobs import JobSpec
        from repro.serve.queue import JobQueue

        with JobQueue(tmp_path) as q:
            job = q.submit(JobSpec(waters=8, steps=10, record_every=5, checkpoint_every=5))
            q.transition(job.id, "RUNNING")
            q.transition(job.id, "DONE", steps_done=10)
        path = tmp_path / "queue.rrs"
        with open(path, "ab") as f:
            f.write(_bogus_header() + b"tail")
        with JobQueue(tmp_path) as q:
            assert q.jobs[job.id].state == "DONE"
            other = q.submit(JobSpec(waters=8, steps=10, record_every=5, checkpoint_every=5))
        with JobQueue(tmp_path) as q:  # the tail was cut, the append landed
            assert (q.jobs[job.id].state, q.jobs[other.id].state) == ("DONE", "PENDING")

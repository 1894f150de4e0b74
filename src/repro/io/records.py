"""Binary record framing for the durable run store.

Every on-disk artifact of the run store (trajectories, checkpoints) is
a sequence of self-describing *records*:

    +--------+-------+-----+----------------+---------------+---------+
    | magic  | rtype | pad | crc32(payload) | payload bytes | payload |
    | 4 B    | 1 B   | 3 B | 4 B            | 8 B (LE)      | ...     |
    +--------+-------+-----+----------------+---------------+---------+

The CRC covers the payload, so a torn write (power loss, SIGKILL) is
detected at the exact record it hit and everything before it stays
readable.  Seekable files additionally end with a fixed-size *trailer*
pointing at an index record:

    +--------+--------------+------------------------+
    | "RIDX" | index offset | crc32(magic || offset) |
    | 4 B    | 8 B (LE)     | 4 B                    |
    +--------+--------------+------------------------+

A reader that finds a valid trailer can seek straight to the index; a
reader that does not (the writer crashed before closing) falls back to
a forward scan that keeps every intact record and drops the torn tail.
"""

from __future__ import annotations

import struct
import zlib

__all__ = [
    "MAGIC",
    "REC_HEADER",
    "REC_FRAME",
    "REC_INDEX",
    "REC_STATE",
    "CorruptRecord",
    "write_record",
    "read_record",
    "read_record_at",
    "scan_records",
    "write_trailer",
    "read_trailer",
    "TRAILER_SIZE",
]

MAGIC = b"RPR1"
TRAILER_MAGIC = b"RIDX"

_HEADER = struct.Struct("<4sB3xIQ")  # magic, rtype, pad, crc32, payload length
_TRAILER = struct.Struct("<4sQI")  # magic, index offset, crc32(magic || offset)
TRAILER_SIZE = _TRAILER.size

#: Record types.
REC_HEADER = 1  # file header: kind/version/fingerprint/decode metadata
REC_FRAME = 2  # one trajectory frame
REC_INDEX = 3  # frame index (offsets + steps), written at close
REC_STATE = 4  # one serialized checkpoint state dict

class CorruptRecord(ValueError):
    """A record failed its magic, length, or CRC check."""


def write_record(f, rtype: int, payload: bytes) -> int:
    """Append one record; returns the record's start offset."""
    offset = f.tell()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    f.write(_HEADER.pack(MAGIC, rtype, crc, len(payload)))
    f.write(payload)
    return offset


def _bytes_left(f) -> int:
    """Bytes between the current position of ``f`` and its end."""
    pos = f.tell()
    end = f.seek(0, 2)
    f.seek(pos)
    return end - pos


def read_record(f) -> tuple[int, bytes]:
    """Read the record at the current position.

    Raises ``EOFError`` on a clean end of file (zero bytes available)
    and :class:`CorruptRecord` on a torn or damaged record — including
    a length field longer than what is left of the file, which is
    rejected before anything is read or allocated for it.
    """
    head = f.read(_HEADER.size)
    if not head:
        raise EOFError("end of file")
    if len(head) < _HEADER.size:
        raise CorruptRecord("truncated record header")
    magic, rtype, crc, n = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CorruptRecord(f"bad record magic {magic!r}")
    left = _bytes_left(f)
    if n > left:
        raise CorruptRecord(f"truncated payload ({left} of {n} bytes)")
    payload = f.read(n)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptRecord("payload CRC mismatch")
    return rtype, payload


def read_record_at(f, offset: int) -> tuple[int, bytes]:
    """Seek to ``offset`` and read one record."""
    f.seek(offset)
    return read_record(f)


def scan_records(f, start: int = 0):
    """Yield ``(offset, end_offset, rtype, payload)`` from ``start``.

    Stops silently at the first torn or corrupt record (the crash-
    recovery contract: keep every record that made it to disk intact,
    drop the tail).  Use :func:`read_record` directly when corruption
    should be an error instead.
    """
    f.seek(start)
    offset = start
    while True:
        try:
            rtype, payload = read_record(f)
        except (EOFError, CorruptRecord):
            return
        end = f.tell()
        yield offset, end, rtype, payload
        offset = end


def write_trailer(f, index_offset: int) -> None:
    """Append the fixed-size trailer locating the index record."""
    crc = zlib.crc32(TRAILER_MAGIC + struct.pack("<Q", index_offset)) & 0xFFFFFFFF
    f.write(_TRAILER.pack(TRAILER_MAGIC, index_offset, crc))


def read_trailer(f) -> int | None:
    """Offset of the index record, or None if the trailer is absent/torn."""
    f.seek(0, 2)
    size = f.tell()
    if size < TRAILER_SIZE:
        return None
    f.seek(size - TRAILER_SIZE)
    raw = f.read(TRAILER_SIZE)
    magic, index_offset, crc = _TRAILER.unpack(raw)
    if magic != TRAILER_MAGIC:
        return None
    if zlib.crc32(TRAILER_MAGIC + struct.pack("<Q", index_offset)) & 0xFFFFFFFF != crc:
        return None
    if index_offset >= size - TRAILER_SIZE:
        return None
    return index_offset

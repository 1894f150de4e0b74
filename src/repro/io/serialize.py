"""Deterministic binary serialization of checkpoint/frame state.

The run store must round-trip the *exact* dynamic state — int64
position/velocity codes for the fixed-point path, raw float64 arrays
for the float path — so the encoding is a tiny tagged binary format
rather than anything text-based: ndarrays are stored as dtype + shape +
C-order bytes, scalars at full width, and encoding the same value twice
produces the same bytes (which lets the crash-recovery test compare
whole files bitwise).

Also home to the **system fingerprint**: the identity of a simulation
(atom count, hashed static arrays, parameter hash, mode, dt, datapath
widths) that is embedded in every checkpoint and trajectory header and
validated on restore, so a snapshot from a different system is rejected
with a field-by-field error instead of restoring garbage shapes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict

import numpy as np

__all__ = [
    "pack_state",
    "unpack_state",
    "system_fingerprint",
    "trajectory_decode",
    "check_fingerprint",
    "FingerprintMismatch",
]

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U8 = struct.Struct("<B")


# -- tagged value encoding ---------------------------------------------------


def _pack_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _pack_value(out: bytearray, obj) -> None:
    if obj is None:
        out += b"N"
    elif isinstance(obj, (bool, np.bool_)):
        out += b"T" if obj else b"F"
    elif isinstance(obj, (int, np.integer)):
        out += b"I"
        out += _I64.pack(int(obj))
    elif isinstance(obj, (float, np.floating)):
        out += b"f"
        out += _F64.pack(float(obj))
    elif isinstance(obj, str):
        out += b"S"
        _pack_str(out, obj)
    elif isinstance(obj, bytes):
        out += b"B"
        out += _U32.pack(len(obj))
        out += obj
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError("object-dtype arrays are not serializable")
        arr = np.ascontiguousarray(obj)
        out += b"A"
        _pack_str(out, arr.dtype.str)
        out += _U8.pack(arr.ndim)
        for dim in arr.shape:
            out += _I64.pack(dim)
        raw = arr.tobytes()
        out += _I64.pack(len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out += b"L"
        out += _U32.pack(len(obj))
        for item in obj:
            _pack_value(out, item)
    elif isinstance(obj, dict):
        out += b"D"
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            _pack_str(out, key)
            _pack_value(out, value)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError("serialized state ends unexpectedly")
        raw = self.data[self.pos:end]
        self.pos = end
        return raw


def _unpack_str(c: _Cursor) -> str:
    (n,) = _U32.unpack(c.take(4))
    return c.take(n).decode("utf-8")


def _unpack_value(c: _Cursor):
    tag = c.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"I":
        return _I64.unpack(c.take(8))[0]
    if tag == b"f":
        return _F64.unpack(c.take(8))[0]
    if tag == b"S":
        return _unpack_str(c)
    if tag == b"B":
        (n,) = _U32.unpack(c.take(4))
        return c.take(n)
    if tag == b"A":
        dtype = np.dtype(_unpack_str(c))
        (ndim,) = _U8.unpack(c.take(1))
        shape = tuple(_I64.unpack(c.take(8))[0] for _ in range(ndim))
        (nbytes,) = _I64.unpack(c.take(8))
        arr = np.frombuffer(c.take(nbytes), dtype=dtype).reshape(shape)
        return arr.copy()  # writable, independent of the input buffer
    if tag == b"L":
        (n,) = _U32.unpack(c.take(4))
        return [_unpack_value(c) for _ in range(n)]
    if tag == b"D":
        (n,) = _U32.unpack(c.take(4))
        out = {}
        for _ in range(n):
            key = _unpack_str(c)
            out[key] = _unpack_value(c)
        return out
    raise ValueError(f"unknown serialization tag {tag!r}")


def pack_state(obj) -> bytes:
    """Encode a state value (dicts/lists of ndarrays and scalars)."""
    out = bytearray()
    _pack_value(out, obj)
    return bytes(out)


def unpack_state(data: bytes):
    """Decode :func:`pack_state` output; tuples come back as lists."""
    c = _Cursor(data)
    obj = _unpack_value(c)
    if c.pos != len(c.data):
        raise ValueError(f"{len(c.data) - c.pos} trailing bytes after state")
    return obj


# -- system fingerprint ------------------------------------------------------


def _hash_arrays(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Compiled topology arrays that define the force-field terms.
_TOPOLOGY_ARRAYS = (
    "bond_idx", "bond_k", "bond_r0",
    "angle_idx", "angle_k", "angle_theta0",
    "dihedral_idx", "dihedral_k", "dihedral_n", "dihedral_delta",
    "constraint_idx", "constraint_dist",
    "vsite_idx", "vsite_weight",
)


def _system_hash(system) -> str:
    """Hash of everything static that influences force bits.

    Covers per-atom parameters, the LJ type table, the compiled
    topology term arrays, and the exclusion/1-4 lists.  Positions and
    velocities are deliberately absent: they are the *dynamic* state a
    checkpoint replaces.
    """
    top = system.topology
    arrays = [system.masses, system.charges, system.type_ids,
              system.lj.sigmas, system.lj.epsilons]
    for name in _TOPOLOGY_ARRAYS:
        arr = getattr(top, name, None)
        if arr is not None:
            arrays.append(np.asarray(arr))
    ex = system.exclusions
    if ex is not None:
        arrays += [ex.excluded, ex.pair14,
                   np.array([ex.lj_scale14, ex.coul_scale14])]
    return _hash_arrays(arrays)


def _params_hash(params) -> str:
    """Hash of the MDParams fields that influence force bits.

    ``skin`` is excluded on purpose: the buffered neighbor list yields
    a pair set that is a pure function of the positions, so results
    are bitwise independent of the skin and a checkpoint may be
    restored under a different buffer radius.
    """
    fields = asdict(params)
    fields.pop("skin", None)
    canon = ";".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    return hashlib.sha256(canon.encode()).hexdigest()


def system_fingerprint(system, params, mode: str, dt: float, fixed_config=None) -> dict:
    """Identity of a run for checkpoint/trajectory compatibility checks.

    Two simulations with equal fingerprints produce bitwise-identical
    trajectories from the same state codes; node count and execution
    backend are deliberately absent (parallel invariance, Section 4).
    """
    fp = {
        "version": 1,
        "n_atoms": int(system.n_atoms),
        "mode": str(mode),
        "dt": float(dt),
        "box": [float(x) for x in system.box.lengths],
        "system_hash": _system_hash(system),
        "params_hash": _params_hash(params),
    }
    if fixed_config is not None:
        fp["position_bits"] = int(fixed_config.position_bits)
        fp["velocity_bits"] = int(fixed_config.velocity_bits)
        fp["velocity_limit"] = float(fixed_config.velocity_limit)
        fp["force_bits"] = int(fixed_config.force_bits)
        fp["force_limit"] = float(fixed_config.force_limit)
    return fp


def trajectory_decode(system, fixed_config=None) -> dict:
    """The ``decode`` header of a trajectory written for ``system``.

    What a reader needs to reconstruct physical positions/velocities
    bit-exactly without the system objects: the box and, for the
    fixed-point path (raw int64 state codes), the datapath widths.
    ``fixed_config=None`` is the float path's header.
    """
    box = [float(x) for x in system.box.lengths]
    if fixed_config is None:
        return {"storage": "float", "box": box}
    return {
        "storage": "codes",
        "position_bits": fixed_config.position_bits,
        "box": box,
        "velocity_bits": fixed_config.velocity_bits,
        "velocity_limit": fixed_config.velocity_limit,
    }


class FingerprintMismatch(ValueError):
    """A stored state belongs to a different system/configuration."""


def check_fingerprint(stored: dict, current: dict, what: str = "checkpoint") -> None:
    """Raise :class:`FingerprintMismatch` listing every differing field.

    Only fields present in *both* fingerprints are compared, so newer
    fingerprints stay readable by code that predates a field.
    """
    mismatches = []
    for key in stored:
        if key not in current:
            continue
        a, b = stored[key], current[key]
        if isinstance(a, float) and isinstance(b, float):
            same = (a == b) or (np.isnan(a) and np.isnan(b))
        else:
            same = a == b
        if not same:
            mismatches.append(f"{key}: {what} has {a!r}, this run has {b!r}")
    if mismatches:
        raise FingerprintMismatch(
            f"{what} belongs to a different system/configuration:\n  "
            + "\n  ".join(mismatches)
        )

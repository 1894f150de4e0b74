"""Lazy, cached build of the compiled kernel extension.

The C source in ``_kernels.c`` is compiled on first use with whatever
C compiler the host provides (``cc``/``gcc``/``clang``), into a shared
object cached next to the package under ``_build/`` keyed by a hash of
the source and the flags — recompiles happen only when either changes.
There is deliberately no setuptools machinery: the kernels are optional,
and a host without a compiler must keep working on the NumPy tier.

Two flags are load-bearing for bitwise reproducibility and are never
negotiable; a third decides only speed:

* ``-ffp-contract=off`` — GCC contracts ``a*b + c`` into fused
  multiply-adds by default at ``-O2``+; an FMA rounds once where NumPy
  rounds twice and silently changes force bits.
* no ``-ffast-math`` — reassociation and reciprocal math would break
  the operation-order contract the kernels are written against.
* ``-march=native`` (:data:`HOST_ISA_FLAG`) — compile for the vector
  ISA of the host the build runs on.  Under the two flags above it
  cannot move a bit (DESIGN.md, vector-width lemma: IEEE add, multiply,
  divide and ``rint`` are correctly rounded per element at every vector
  width), it only lets the compiler issue the hot loops eight lanes at
  a time and ``rint`` as one instruction instead of a libm call.  An
  object built for one host's ISA must never run on another's, so what
  the flag resolved to (:func:`_host_isa`) is part of the cache key.

The build is a two-rung ladder (:data:`_VARIANTS`): host ISA, then
baseline ISA.  The first rung that compiles is used and recorded
(:func:`build_record`; ``repro info`` prints it).  A compiler that
rejects the host-ISA flag lands on the baseline rung silently — same
bits, slower.  The source is single-threaded C and links nothing but
libm.

``REPRO_KERNEL_CFLAGS`` appends extra compiler flags (whitespace
separated, after the fixed ones) to this one build and is part of the
cache key, so a sanitizer build — CI's
``-fsanitize=address,undefined -fno-sanitize-recover=undefined`` —
gets its own ``.so`` next to the production one, and
``-march=x86-64`` there (last wins) is the baseline-ISA build of the
same ladder.  It is a hook for instrumentation, not a tuning knob: the
two flags above still apply, and nothing may be passed that changes
floating-point results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

__all__ = ["KernelBuildError", "build", "build_record", "load"]

_SRC = Path(__file__).resolve().parent / "_kernels.c"

#: Optimized but strictly IEEE-ordered; see module docstring.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: Compile for the build host's own vector ISA; see module docstring.
HOST_ISA_FLAG = "-march=native"

#: The build ladder, tried in order per compiler: the same source for
#: the host's ISA, then for the compiler's baseline.
_VARIANTS = ((HOST_ISA_FLAG,), ())

_COMPILERS = ("cc", "gcc", "clang")


def _extra_cflags() -> tuple[str, ...]:
    """Flags appended from ``REPRO_KERNEL_CFLAGS`` (see module docstring)."""
    return tuple(os.environ.get("REPRO_KERNEL_CFLAGS", "").split())


_lib = None
_lib_error: Exception | None = None
_compiler_idents: dict[str, str | None] = {}
_host_isas: dict[tuple, str | None] = {}
_record: dict | None = None


class KernelBuildError(RuntimeError):
    """The compiled tier is unavailable on this host."""


class MeshAxes(ctypes.Structure):
    """``rk_axes``: stencil shape, z lanes, mesh shape, and a plan's nine axis rows."""

    _fields_ = [
        (name, ctypes.c_int64) for name in ("kx", "ky", "kz", "kzp", "mx", "my", "mz")
    ] + [
        (name, ctypes.c_void_p)
        for name in ("wxn", "wy", "wz", "dx", "dy", "dz", "ix", "iy", "iz")
    ]


class PairSpec(ctypes.Structure):
    """``rk_pair_spec``: the frozen inputs of the range-limited pair walk."""

    _fields_ = (
        [(name, ctypes.c_void_p) for name in ("charges", "types", "amat", "bmat")]
        + [("n_types", ctypes.c_int64)]
        + [(name, ctypes.c_double) for name in ("coulomb", "cutoff2", "umax")]
        + [(name, ctypes.c_void_p)
           for name in ("e_starts", "e_widths", "e_inv", "e_cf", "e_ce")]
        + [("e_nseg", ctypes.c_int64)]
        + [(name, ctypes.c_void_p)
           for name in ("d_starts", "d_widths", "d_inv", "c12f", "c6f", "c12e", "c6e")]
        + [("d_nseg", ctypes.c_int64)]
        + [(name, ctypes.c_double) for name in ("q_limit", "q_scale", "q_mul")]
    )


def _compiler_ident(cc: str) -> str | None:
    """First line of ``cc --version``, or None when the compiler is
    missing.  Part of the cache key: a host switching cc -> clang (or
    upgrading gcc) must not reuse a stale ``.so``."""
    if cc not in _compiler_idents:
        try:
            proc = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            )
            ident = proc.stdout.splitlines()[0] if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired, IndexError):
            ident = None
        _compiler_idents[cc] = ident
    return _compiler_idents[cc]


#: Vector-ISA macros, widest first, that name a host-ISA token readably
#: (cosmetic: the token's hash is what the cache key rests on).
_ISA_MACROS = ("__AVX512F__", "__AVX2__", "__AVX__", "__SSE4_2__", "__ARM_FEATURE_SVE",
               "__ARM_NEON")


def _host_isa(cc: str) -> str | None:
    """What :data:`HOST_ISA_FLAG` (under ``REPRO_KERNEL_CFLAGS``) resolves
    to for ``cc`` on this host, as a short token; None when the compiler
    rejects it.

    The token is the widest vector-ISA macro the flags predefine plus a
    hash of *every* predefined macro (``cc ... -dM -E``), so two hosts
    share a token exactly when the compiler would emit the same
    instruction set for both.  Part of the cache key of the host-ISA
    rungs: a ``_build/`` shared across machines (NFS home, baked image)
    can never hand one host's object to a CPU without its ISA.  One
    preprocessor run per process.
    """
    key = (cc, _extra_cflags())
    if key not in _host_isas:
        cmd = [cc, HOST_ISA_FLAG, *_extra_cflags(), "-dM", "-E", "-x", "c", os.devnull]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            macros = proc.stdout if proc.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            macros = ""
        token = None
        if macros:
            lines = sorted(macros.splitlines())
            defined = {line.split()[1] for line in lines if line.startswith("#define ")}
            name = next((m for m in _ISA_MACROS if m in defined), "base")
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            token = f"{name.strip('_').lower()}-{digest[:8]}"
        _host_isas[key] = token
    return _host_isas[key]


def _source_key(variant: tuple[str, ...], ident: str, isa: str = "") -> str:
    """Cache key of one rung: source, every flag, compiler, and — for the
    host-ISA rung — the token of the ISA it was compiled for."""
    h = hashlib.sha256()
    h.update(_SRC.read_bytes())
    h.update(" ".join(CFLAGS + variant + _extra_cflags()).encode())
    h.update(ident.encode())
    h.update(isa.encode())
    return h.hexdigest()[:16]


def _build_dir() -> Path:
    """Writable cache directory for the shared object.

    Prefers ``_build/`` inside the package (fast, survives across
    runs); falls back to a per-user temp directory when the package
    tree is read-only (e.g. an installed site-packages).
    """
    cand = _SRC.parent / "_build"
    try:
        cand.mkdir(exist_ok=True)
        probe = cand / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
        return cand
    except OSError:
        fallback = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
        fallback.mkdir(exist_ok=True)
        return fallback


def build() -> Path:
    """Compile (if needed) and return the path to the shared object.

    Per compiler the ladder :data:`_VARIANTS` is walked top down and the
    first rung that is cached or compiles wins; :func:`build_record`
    then says which.  A compiler that rejects :data:`HOST_ISA_FLAG`
    (probed, not compiled) takes the baseline rung silently.  Raises
    :class:`KernelBuildError` when no rung builds with any compiler.
    """
    global _record
    if not _SRC.exists():
        raise KernelBuildError(f"kernel source missing: {_SRC}")
    bdir = _build_dir()
    errors = []
    for cc in _COMPILERS:
        ident = _compiler_ident(cc)
        if ident is None:
            errors.append(f"{cc}: not found")
            continue
        for variant in _VARIANTS:
            rung, isa = "baseline", ""
            if HOST_ISA_FLAG in variant:
                rung, isa = "host-isa", _host_isa(cc)
                if isa is None:
                    errors.append(f"{cc} {rung}: {HOST_ISA_FLAG} probe failed")
                    continue
            flags = [*CFLAGS, *variant, *_extra_cflags()]
            out = bdir / f"_kernels-{_source_key(variant, ident, isa)}.so"
            if not out.exists():
                tmp = out.with_name(out.name + f".tmp{os.getpid()}")
                cmd = [cc, *flags, str(_SRC), "-o", str(tmp), "-lm"]
                try:
                    proc = subprocess.run(
                        cmd, capture_output=True, text=True, timeout=120
                    )
                except (OSError, subprocess.TimeoutExpired) as exc:
                    errors.append(f"{cc}: {exc}")
                    continue
                if proc.returncode != 0 or not tmp.exists():
                    errors.append(
                        f"{cc} {rung}: rc={proc.returncode} "
                        f"{proc.stderr.strip()[:400]}"
                    )
                    tmp.unlink(missing_ok=True)
                    continue
                os.replace(tmp, out)  # atomic: concurrent builders race
            _record = {
                "compiler": ident,
                "flags": " ".join(flags),
                "isa": isa or "baseline",
                "rung": rung,
                "so": str(out),
            }
            return out
    raise KernelBuildError(
        "no working C compiler for the compiled kernel tier: "
        + "; ".join(errors)
    )


def build_record() -> dict | None:
    """Which build this process resolved, or None before :func:`build`.

    ``compiler`` (its ``--version`` line), the effective ``flags``, the
    host-``isa`` token (``"baseline"`` off the host-ISA rung), the
    ladder ``rung`` taken (``"host-isa"`` or ``"baseline"``) and the
    ``so`` path.  Observational only.
    """
    return _record


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argument/return types so ctypes marshals correctly."""
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    p = ctypes.c_void_p  # raw array pointers via ndarray.ctypes.data

    lib.rk_neighbor_work_size.restype = i64
    lib.rk_neighbor_work_size.argtypes = [i64]
    lib.rk_neighbor_build.restype = i64
    lib.rk_neighbor_build.argtypes = [i64, i64, p, p, f64, p, p, p, p, p, i64, p]
    # The walk takes the Verlet rows and a PairSpec by reference.
    lib.rk_pair_walk.restype = i64
    lib.rk_pair_walk.argtypes = [i64, p, p, p, p, p, p, p, p, p, p, p]
    # The walk's float64 twin: force rows out instead of an accumulator in.
    lib.rk_pair_rows.restype = i64
    lib.rk_pair_rows.argtypes = [i64, p, p, p, p, p, p, p, p, p, p, p]
    lib.rk_nt_marks.restype = None
    lib.rk_nt_marks.argtypes = [i64, p, p, p, p, i64, i64, p, p]
    lib.rk_deposit_pairs.restype = None
    lib.rk_deposit_pairs.argtypes = [p, p, p, p, i64]
    lib.rk_deposit_pairs_float.restype = None
    lib.rk_deposit_pairs_float.argtypes = [p, p, p, p, i64]
    lib.rk_scatter_rows.restype = None
    lib.rk_scatter_rows.argtypes = [p, p, p, i64]
    # Fused mesh kernels: a MeshAxes by reference first.
    lib.rk_mesh_spread_axes.restype = None
    lib.rk_mesh_spread_axes.argtypes = [p, i64, f64, p, p, p]
    lib.rk_mesh_spread_float_axes.restype = None
    lib.rk_mesh_spread_float_axes.argtypes = [p, i64, f64, p, p, i64, p, i64]
    lib.rk_mesh_gather_axes.restype = None
    lib.rk_mesh_gather_axes.argtypes = [p, i64, i64, f64, p, p, p]
    lib.rk_shake_batch.restype = None
    lib.rk_shake_batch.argtypes = (
        [i64, i64, p, p, p, p, p, p, p, i64, p, p, i64, i64, f64, p]
    )
    lib.rk_rattle_batch.restype = None
    lib.rk_rattle_batch.argtypes = (
        [i64, i64, p, p, p, p, p, p, i64, p, p, i64, i64, f64, p, p]
    )



def load() -> ctypes.CDLL:
    """Build if needed and load the extension (cached per process)."""
    global _lib, _lib_error
    if _lib is not None:
        return _lib
    if _lib_error is not None:
        raise KernelBuildError(str(_lib_error))
    try:
        lib = ctypes.CDLL(str(build()))
        _declare(lib)
    except (KernelBuildError, OSError) as exc:
        _lib_error = exc
        raise KernelBuildError(str(exc)) from exc
    _lib = lib
    return lib


def available() -> bool:
    """True when the compiled tier can be (or already was) loaded."""
    try:
        load()
    except KernelBuildError:
        return False
    return True

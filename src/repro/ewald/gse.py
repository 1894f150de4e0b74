"""Gaussian Split Ewald (GSE) — the paper's mesh electrostatics method.

GSE (Shan et al. 2005, ref [31]) replaces SPME's B-spline charge
assignment with *radially symmetric Gaussians*, which is what lets
Anton run charge spreading and force interpolation on the same
pairwise-point-interaction hardware as the range-limited forces
(Section 3.1): the interaction between an atom and a mesh point is a
table-driven function of the distance between them.

The splitting: the total screening Gaussian has width ``sigma``;
charges are spread onto the mesh with a narrower Gaussian ``sigma_s``
and forces interpolated back with the same ``sigma_s``, so the mesh
convolution carries the remaining width ``sigma² - 2 sigma_s²`` (which
must be positive).

Charge spreading and force interpolation share one
:class:`MeshStencilPlan` per evaluation: the separable axis weights
and mesh indices are computed once and reused by both passes (they are
identical by construction — the same radially symmetric kernel runs
both on Anton's HTIS), instead of being rebuilt per pass and, on the
serial machine backend, per owning node.
"""

from __future__ import annotations

import math
import weakref
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.ewald.kernels import choose_sigma
from repro.fixedpoint.accumulate import scatter_add_int64
from repro.geometry import Box
from repro.util import COULOMB

__all__ = ["GSEParams", "GaussianSplitEwald", "MeshStencilPlan"]

#: Budget for whole materialised stencil cubes, in elements (atoms x
#: stencil points).  The cubes cost ~12 bytes per element (float64
#: weight + int32 index), so 16M elements is ~190 MB.  A
#: :class:`MeshStencilPlan` within the budget fills its cubes once per
#: build; one above it fills only the rows of the kernel chunk in hand
#: (same per-atom arithmetic, same bits), so no caller ever sees the
#: budget.  The fused compiled kernels run from the O(n·k) axis rows
#: and need no cube at any size.
PLAN_MAX_ELEMENTS = 16_000_000

#: Atom rows per pass while filling the cubes (bounds the r² scratch).
_PLAN_BUILD_CHUNK = 256

#: Atom rows per pass in the spreading / interpolation kernels (bounds
#: the per-chunk contribution buffers).  Chunking never changes bits:
#: the quantize/einsum arithmetic is per-atom and the scatters commute.
_KERNEL_CHUNK = 512


def _fused(kernels) -> bool:
    """Whether ``kernels`` carries the fused axis-row mesh primitives."""
    return kernels is not None and kernels.tier == "compiled"


@dataclass(frozen=True)
class GSEParams:
    """Tunable parameters of a GSE evaluation.

    ``sigma`` is the total Ewald width (tied to the real-space cutoff),
    ``sigma_s`` the spreading/interpolation Gaussian, ``mesh`` the FFT
    grid, and ``spreading_cutoff`` the atom–mesh-point interaction
    radius (the paper's BPTI run used 7.1 A).
    """

    sigma: float
    sigma_s: float
    mesh: tuple[int, int, int]
    spreading_cutoff: float

    def __post_init__(self) -> None:
        if self.sigma**2 <= 2.0 * self.sigma_s**2:
            raise ValueError(
                f"need sigma^2 > 2 sigma_s^2 (got sigma={self.sigma}, sigma_s={self.sigma_s})"
            )
        if any(m < 4 for m in self.mesh):
            raise ValueError("mesh must be at least 4 points per axis")

    @classmethod
    def choose(
        cls,
        box: Box,
        cutoff: float,
        mesh: tuple[int, int, int],
        real_space_tolerance: float = 1e-5,
        sigma_s_factor: float = 0.5,
        spreading_radius_sigmas: float = 5.5,
        sigma_s_per_h: float = 1.05,
    ) -> "GSEParams":
        """Pick consistent GSE parameters for a cutoff and mesh.

        ``sigma`` comes from the real-space tolerance at the cutoff
        (larger cutoff -> larger sigma -> coarser mesh suffices: the
        Table 2 tradeoff).  ``sigma_s`` is a fixed fraction of sigma,
        floored at ``sigma_s_per_h`` mesh spacings so the grid resolves
        it (calibrated to land total force error in Table 4's 1e-5 to
        1e-4 band).
        """
        sigma = choose_sigma(cutoff, real_space_tolerance)
        h = float(np.max(box.lengths / np.asarray(mesh)))
        sigma_s = max(sigma_s_factor * sigma / math.sqrt(2.0), sigma_s_per_h * h)
        if sigma**2 <= 2.0 * sigma_s**2:
            raise ValueError(
                f"mesh {mesh} too coarse for cutoff {cutoff}: spreading "
                f"Gaussian {sigma_s:.2f} A cannot stay under sigma/sqrt(2)"
            )
        return cls(
            sigma=sigma,
            sigma_s=sigma_s,
            mesh=tuple(mesh),
            spreading_cutoff=spreading_radius_sigmas * sigma_s,
        )

    @classmethod
    def smallest_mesh(cls, box: Box, cutoff: float) -> tuple[int, int, int]:
        """The smallest power-of-two mesh, 16 or more per axis, :meth:`choose` accepts.

        Per axis, the fewest points whose spacing still resolves the
        spreading Gaussian under this cutoff's ``sigma``; found by
        asking :meth:`choose` itself and doubling the coarsest axis
        while it refuses.  A pure function of box and cutoff: the
        drivers that fix their mesh from the system (the CLI's water
        runs, serve jobs) call this instead of hard-coding a size only
        small boxes fit.
        """
        mesh = [16, 16, 16]
        while True:
            try:
                cls.choose(box, cutoff, tuple(mesh))
            except ValueError:
                if max(mesh) >= 1 << 16:  # not a resolution problem
                    raise
                mesh[int(np.argmax(box.lengths / np.asarray(mesh)))] *= 2
            else:
                return tuple(mesh)


class MeshStencilPlan:
    """Shared stencil weights/indices for one set of atom positions.

    Built once per mesh evaluation and reused by charge spreading,
    force interpolation, and potential interpolation.  What is stored
    is only what is separable: per atom and axis, the Gaussian weight
    row ``axis_w`` (x pre-scaled by the stencil norm), the displacement
    row ``axis_d`` and the wrapped int32 mesh-index row ``axis_i`` —
    ``(n, kx + ky + kz)`` elements of each.  The compiled tier's fused
    spread and gather kernels evaluate every atom–mesh-point weight on
    the fly from those rows, as Anton's HTIS does.

    The masked 4-D weight cube ``w`` (n, kx, ky, kz) and flattened mesh
    indices ``flat`` (n, k) — int32 when the mesh fits — are a NumPy
    view of the same rows: the NumPy tier's pipeline, and the oracle
    the fused kernels are tested against.  Within
    :data:`PLAN_MAX_ELEMENTS` they are filled whole, once per
    :meth:`build`; a larger plan fills each kernel chunk's rows into
    chunk-sized scratch instead (:meth:`_stencil`).

    Every kernel is strictly per-atom arithmetic followed by a
    commutative reduction (integer scatter, float bincount in element
    order, or an einsum/sum over each atom's own stencil row), so the
    results are bitwise independent of how callers chunk or partition
    the ``rows`` they pass — the machine's parallel-invariance
    requirement — and of which side of the budget the plan is on.
    """

    __slots__ = (
        "gse", "n", "shape", "axis_w", "axis_d", "axis_i",
        "_cubes", "_stale", "_parent", "_lo", "_scratch", "_contract",
        "_chunk_cubes", "_r2", "_lanes", "_acc", "__weakref__",
    )

    def __init__(self, gse: "GaussianSplitEwald", n: int):
        self.gse = gse
        self.n = int(n)
        self.shape = tuple(int(2 * c + 1) for c in gse._offsets)
        self.axis_w = [np.empty((self.n, k)) for k in self.shape]
        self.axis_d = [np.empty((self.n, k)) for k in self.shape]
        self.axis_i = [np.empty((self.n, k), dtype=np.int32) for k in self.shape]
        self._cubes, self._stale = None, True
        self._parent, self._lo = None, 0
        self._scratch = self._contract = self._chunk_cubes = self._r2 = None
        self._lanes = self._acc = None

    def _buffer(self, chunk: int) -> np.ndarray:
        """Reusable (chunk, k) contribution buffer.

        Shared by the spreading and interpolation kernels (they never
        run concurrently) and kept across steps when the plan storage
        is reused, so the hot loops touch warm pages instead of
        faulting fresh allocations every evaluation.  Grown together
        with ``_contract``, the ``[1, dz]`` operand (chunk, kz, 2) and
        the z-contracted partials (chunk, kx·ky, 2) of
        :meth:`interpolate_forces`.
        """
        if self._scratch is None or self._scratch.shape[0] < chunk:
            kx, ky, kz = self.shape
            self._scratch = np.empty((chunk, kx * ky * kz))
            self._contract = (np.empty((chunk, kz, 2)), np.empty((chunk, kx * ky, 2)))
            self._contract[0][:, :, 0] = 1.0
        return self._scratch

    # -- construction ------------------------------------------------------

    def build(self, positions: np.ndarray, kernels=None) -> "MeshStencilPlan":
        """Fill the plan for ``positions`` (row i of every array is atom i).

        Only the per-axis rows are computed here, always in NumPy
        (``np.exp`` stays there, which keeps the bits trivially
        identical across tiers).  With a compiled kernel suite that is
        all: the fused kernels need nothing else, and no O(n·k³) array
        is touched.  Otherwise cubes within the budget are materialised
        now, so the NumPy pipeline pays for them here and not inside
        its first pass.
        """
        g = self.gse
        inv_2ss2 = 1.0 / (2.0 * g.params.sigma_s**2)
        pos = g.box.wrap(np.asarray(positions, dtype=np.float64))
        base = np.floor(pos / g.h).astype(np.int64)  # nearest-lower mesh pt
        for a, c in enumerate(g._offsets):
            cells = base[:, a : a + 1] + np.arange(-c, c + 1)[None, :]  # (n, ka)
            d = self.axis_d[a]
            np.subtract(pos[:, a : a + 1], cells * g.h[a], out=d)
            np.exp(-(d * d) * inv_2ss2, out=self.axis_w[a])
            self.axis_i[a][...] = np.mod(cells, g.mesh[a])
        self.axis_w[0] *= g._spread_norm
        self._stale = True
        if not _fused(kernels) and self._in_budget():
            self._materialise()
        return self

    def _root(self) -> "MeshStencilPlan":
        """The plan that owns the cubes: this one, or a view's parent."""
        return self if self._parent is None else self._parent()

    def _in_budget(self) -> bool:
        """Whether the whole cubes (the parent's, for a view) fit the budget."""
        return self._root().n * math.prod(self.shape) <= PLAN_MAX_ELEMENTS

    def _flat_dtype(self):
        return np.int32 if self.gse.mesh_point_count() <= np.iinfo(np.int32).max else np.int64

    def _materialise(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole ``(w, flat)`` cubes, filled from the axis rows when stale."""
        if self._parent is not None:
            w, flat = self._root()._materialise()
            return w[self._lo : self._lo + self.n], flat[self._lo : self._lo + self.n]
        if self._stale:
            if self._cubes is None:
                self._cubes = (
                    np.empty((self.n, *self.shape)),
                    np.empty((self.n, math.prod(self.shape)), self._flat_dtype()),
                )
            self._fill(None, 0, self.n, *self._cubes)
            self._stale = False
        return self._cubes

    def _fill(self, rows, lo: int, hi: int, w: np.ndarray, flat: np.ndarray) -> None:
        """Cube rows of atoms ``[lo, hi)`` (of ``rows``, when given) into ``w`` / ``flat``."""
        g = self.gse
        kx, ky, kz = self.shape
        flat4 = flat.reshape(len(flat), kx, ky, kz)
        mesh = [int(m) for m in g.mesh]
        c2 = g.params.spreading_cutoff**2
        if self._r2 is None:
            self._r2 = np.empty((min(_PLAN_BUILD_CHUNK, self.n), kx, ky, kz))
        for a in range(lo, hi, _PLAN_BUILD_CHUNK):
            b = min(a + _PLAN_BUILD_CHUNK, hi)
            out = slice(a - lo, b - lo)
            axis_w = [self._take(x, rows, a, b) for x in self.axis_w]
            axis_i = [
                self._take(x, rows, a, b).astype(flat.dtype, copy=False) for x in self.axis_i
            ]
            # Weights: two outer products, the big one written in place
            # (einsum's specialized outer loop beats the stride-0
            # broadcast multiply; each element is the same single
            # product either way, so the bits are unchanged).
            wv = w[out]
            wxy = axis_w[0][:, :, None] * axis_w[1][:, None, :]
            np.einsum("nxy,nz->nxyz", wxy, axis_w[2], out=wv)
            # Spherical cutoff mask on r² = (dx²+dy²)+dz² (this exact
            # association order also classifies the dense reference and
            # the fused kernels, so masked entries agree bit for bit).
            d2 = [x * x for x in (self._take(x, rows, a, b) for x in self.axis_d)]
            r2 = self._r2[: b - a]
            r2xy = d2[0][:, :, None] + d2[1][:, None, :]
            np.add(r2xy[:, :, :, None], d2[2][:, None, None, :], out=r2)
            np.multiply(wv, r2 <= c2, out=wv)
            # Flattened mesh indices, x-major to match the mesh layout.
            fxy = axis_i[0][:, :, None] * mesh[1] + axis_i[1][:, None, :]
            np.add(
                fxy[:, :, :, None] * mesh[2],
                axis_i[2][:, None, None, :],
                out=flat4[out],
            )

    def _stencil(self, rows, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(w2, flat)`` rows, each (m, k), of atoms ``[lo, hi)`` (of ``rows``).

        From the whole cubes when those fit the budget (or are filled
        already); otherwise just these rows, filled into chunk scratch,
        which keeps an over-budget plan at O(chunk·k) memory.
        """
        m, k = hi - lo, math.prod(self.shape)
        if not self._root()._stale or self._in_budget():
            w, flat = self._materialise()
            return self._take(w.reshape(self.n, k), rows, lo, hi), self._take(flat, rows, lo, hi)
        if self._chunk_cubes is None or len(self._chunk_cubes[1]) < m:
            self._chunk_cubes = (np.empty((m, *self.shape)), np.empty((m, k), self._flat_dtype()))
        w, flat = (c[:m] for c in self._chunk_cubes)
        self._fill(rows, lo, hi, w, flat)
        return w.reshape(m, k), flat

    w = property(lambda self: self._materialise()[0], doc="Masked weight cube (n, kx, ky, kz).")
    flat = property(lambda self: self._materialise()[1], doc="Flattened mesh indices (n, k).")

    def _axes(self) -> tuple:
        """What every fused kernel takes after its output: rows, mesh, c2."""
        g = self.gse
        return self.axis_w, self.axis_d, self.axis_i, g.mesh, g.params.spreading_cutoff**2

    def rows_view(self, lo: int, hi: int) -> "MeshStencilPlan":
        """Zero-copy plan over the contiguous atom rows ``[lo, hi)``.

        The view shares this plan's storage (it stays valid across
        in-place :meth:`build` refills) and runs every kernel exactly as
        a standalone plan over those atoms would: chunk loops restart at
        the view's first row, which is what makes the chunk-*sensitive*
        float spreading path of a stacked-replica mesh bitwise equal to
        each replica's solo evaluation.  Do not call :meth:`build` on a
        view; rebuild the parent.  A view refers to its parent (for the
        cubes) weakly and is valid while it lives: a parent that keeps
        its views is then no reference cycle, and is freed with its
        holder instead of whenever the cyclic collector next runs.
        """
        v = MeshStencilPlan.__new__(MeshStencilPlan)
        v.gse = self.gse
        v.n = int(hi - lo)
        v.shape = self.shape
        v.axis_w = [a[lo:hi] for a in self.axis_w]
        v.axis_d = [a[lo:hi] for a in self.axis_d]
        v.axis_i = [a[lo:hi] for a in self.axis_i]
        v._parent = weakref.ref(self) if self._parent is None else self._parent
        v._lo = self._lo + lo
        v._scratch = v._contract = v._chunk_cubes = v._r2 = v._lanes = v._acc = None
        return v

    def _lane_views(self, lanes: int) -> list["MeshStencilPlan"]:
        """This plan as ``lanes`` equal runs of rows: itself, or kept views
        (valid across refills; each owns its scratch, one per worker thread)."""
        if lanes == 1:
            return [self]
        if self._lanes is None or len(self._lanes) != lanes:
            n = self.n // lanes
            self._lanes = [self.rows_view(r * n, (r + 1) * n) for r in range(lanes)]
        return self._lanes

    def _accumulator(self, lanes: int) -> np.ndarray:
        """The kept ``(lanes, mesh points)`` int64 mesh accumulator, zeroed."""
        shape = (lanes, self.gse.mesh_point_count())
        if self._acc is None or self._acc.shape != shape:
            self._acc = np.zeros(shape, dtype=np.int64)
        else:
            self._acc[...] = 0
        return self._acc

    # -- kernels -----------------------------------------------------------

    def _take(self, arr: np.ndarray, rows, lo: int, hi: int) -> np.ndarray:
        """Chunk ``arr`` by position (all rows) or by a ``rows`` subset."""
        return arr[lo:hi] if rows is None else arr[rows[lo:hi]]

    def spread_codes(
        self, charges: np.ndarray, mesh_acc: np.ndarray, codec,
        rows=None, chunk: int = _KERNEL_CHUNK, kernels=None,
    ) -> None:
        """Quantize and scatter ``w · q`` into the flat int64 mesh.

        Codes are ``rint(w * (q * scale / limit))`` — per-atom
        arithmetic, so the partition of ``rows`` across callers cannot
        change any code — and the scatter is bincount-based: whenever
        every per-slice bin sum provably fits float64's 2⁵³ integer
        window the integral codes are summed directly by one float64
        ``np.bincount`` per slice (exact, and bitwise equal to
        ``np.add.at`` because integer sums commute); codes too large
        for that window take :func:`scatter_add_int64`'s split-word
        path instead.
        """
        charges = np.asarray(charges, dtype=np.float64)
        qc = charges * (codec.fmt.scale / codec.limit)
        n_rows = self.n if rows is None else len(rows)
        if n_rows == 0:
            return
        if rows is None and _fused(kernels):
            # One C pass straight from the axis rows: rint(w * qc)
            # scattered by integer adds.  Integer sums commute, so this
            # matches both bincount paths below bit for bit, with no
            # exactness-window analysis and no cubes.
            kernels.mesh_spread_axes(mesh_acc, *self._axes(), qc)
            return
        k = math.prod(self.shape)
        # |code| <= max|w| * max|q·scale/limit| + 1/2 (rint); the +1.0
        # over-covers.  A slice of r rows contributes at most r·k codes
        # to one bin, so r·k·bound < 2**53 keeps every partial sum an
        # exact float64 integer.
        bound = self.gse._spread_norm * float(np.max(np.abs(qc))) + 1.0
        exact_rows = int(2.0**52 / (bound * k))
        if exact_rows >= 1:
            chunk = max(1, min(chunk, exact_rows))
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            b = buf[: hi - lo]
            w2, flat = self._stencil(rows, lo, hi)
            np.multiply(w2, self._take(qc, rows, lo, hi)[:, None], out=b)
            np.rint(b, out=b)
            if exact_rows >= 1:
                part = np.bincount(flat.ravel(), weights=b.ravel(), minlength=mesh_acc.shape[0])
                with np.errstate(over="ignore"):
                    mesh_acc += part.astype(np.int64)
            else:
                scatter_add_int64(mesh_acc, flat, b.astype(np.int64))

    def spread_float(
        self, charges: np.ndarray, mesh: np.ndarray,
        rows=None, chunk: int = _KERNEL_CHUNK, kernels=None,
    ) -> None:
        """Unquantized spreading into the flat float64 ``mesh``.

        A float bincount per ``chunk`` rows, summed in element order:
        chunk-*sensitive*, unlike every other plan kernel.
        """
        charges = np.asarray(charges, dtype=np.float64)
        if rows is None and _fused(kernels):
            kernels.mesh_spread_float_axes(mesh, *self._axes(), charges, chunk)
            return
        n_rows = self.n if rows is None else len(rows)
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            b = buf[: hi - lo]
            w2, flat = self._stencil(rows, lo, hi)
            np.multiply(w2, self._take(charges, rows, lo, hi)[:, None], out=b)
            mesh += np.bincount(flat.ravel(), weights=b.ravel(), minlength=mesh.shape[0])

    def interpolate_forces(
        self, charges: np.ndarray, phi: np.ndarray,
        rows=None, out=None, chunk: int = _KERNEL_CHUNK,
        kernels=None,
    ) -> np.ndarray:
        """Separable gather-and-contract force interpolation.

        Gathers ``phi`` at the stencil indices times the masked weight
        — one fused C pass per chunk straight from the axis rows on the
        compiled tier, ``np.take`` times the weight cube otherwise —
        and contracts each axis factor with a matmul/einsum; the
        ``(n, k, 3)`` displacement/coefficient tensors of the old path
        are never built.  The contraction stays in NumPy on every tier:
        its bits are BLAS's reduction order, which C cannot promise to
        reproduce.  Each atom's contraction runs over its own
        fixed-size stencil row, so chunk and subset boundaries are
        invisible in the bits.
        """
        g = self.gse
        charges = np.asarray(charges, dtype=np.float64)
        phi_flat = phi.ravel()
        n_rows = self.n if rows is None else len(rows)
        if out is None:
            out = np.empty((n_rows, 3))
        kx, ky, kz = self.shape
        fused = rows is None and _fused(kernels)
        buf = self._buffer(chunk)
        ones_dz, partials = self._contract
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            m = hi - lo
            cube2 = buf[:m]
            if fused:
                kernels.mesh_gather_axes(cube2, *self._axes(), phi_flat, lo, hi)
            else:
                # mode="clip" skips the bounds-check path (indices are
                # in-range by construction: the plan wraps them with mod).
                w2, flat = self._stencil(rows, lo, hi)
                np.take(phi_flat, flat, out=cube2, mode="clip")
                cube2 *= w2
            # One pass over the cube: contract z against [1, dz] with a
            # per-atom fixed-shape matmul, leaving the small (m, kx, ky)
            # partials s0 = sum_z g and s1 = sum_z g·dz.  Each atom's
            # matmul has the same (kx·ky, kz)x(kz, 2) shape no matter
            # how rows are chunked, so the bits are partition-invariant.
            B = ones_dz[:m]
            B[:, :, 1] = self._take(self.axis_d[2], rows, lo, hi)
            s = np.matmul(cube2.reshape(m, kx * ky, kz), B, out=partials[:m])
            s3 = s.reshape(m, kx, ky, 2)
            pref = self._take(charges, rows, lo, hi) / g.params.sigma_s**2
            out[lo:hi, 0] = pref * np.einsum(
                "nxy,nx->n", s3[..., 0], self._take(self.axis_d[0], rows, lo, hi)
            )
            out[lo:hi, 1] = pref * np.einsum(
                "nxy,ny->n", s3[..., 0], self._take(self.axis_d[1], rows, lo, hi)
            )
            out[lo:hi, 2] = pref * np.einsum("nxy->n", s3[..., 1])
        return out

    def interpolate_potential(
        self, phi: np.ndarray, rows=None, chunk: int = _KERNEL_CHUNK
    ) -> np.ndarray:
        """Per-atom potential ``phi_i = sum_m phi[m] w_im``."""
        phi_flat = phi.ravel()
        n_rows = self.n if rows is None else len(rows)
        out = np.empty(n_rows)
        buf = self._buffer(chunk)
        for lo in range(0, n_rows, chunk):
            hi = min(lo + chunk, n_rows)
            b = buf[: hi - lo]
            w2, flat = self._stencil(rows, lo, hi)
            np.take(phi_flat, flat, out=b, mode="clip")
            b *= w2
            out[lo:hi] = np.sum(b, axis=1)
        return out


class GaussianSplitEwald:
    """GSE k-space evaluator for a fixed box and parameter set.

    The pieces (spreading weights, mesh solve, interpolation) are
    exposed separately for tests and analysis; :meth:`mesh_pass`
    composes them — plan, spread, solve, gather — once, for every
    engine: the float path (:meth:`kspace`, one lane), the batched
    ensemble (R lanes) and the simulated machine (one lane, FFT traffic
    accounted before the solve).  All of them run on
    :class:`MeshStencilPlan` kernels, so the one-line wrappers here and
    a caller-held plan produce identical bits by construction.
    """

    def __init__(self, box: Box, params: GSEParams):
        self.box = box
        self.params = params
        self.mesh = np.asarray(params.mesh, dtype=np.int64)
        self.h = box.lengths / self.mesh
        self.cell_volume = float(np.prod(self.h))
        self._green = self._build_green()
        self._offsets = self._build_offsets()
        #: Peak spreading weight ``h³ g_{sigma_s}(0)`` — the stencil
        #: normalization, and the |w| bound the quantized scatter uses
        #: to prove its float64 bin sums exact.
        self._spread_norm = (
            2.0 * math.pi * params.sigma_s**2
        ) ** -1.5 * self.cell_volume

    # -- precomputation ---------------------------------------------------

    def _build_green(self) -> np.ndarray:
        """Mesh Green's function ke*(4 pi / V) exp(-(s²-2ss²)k²/2)/k²."""
        p = self.params
        L = self.box.lengths
        freqs = [2.0 * math.pi * np.fft.fftfreq(m, d=1.0 / m) / L[a] for a, m in enumerate(p.mesh)]
        KX, KY, KZ = np.meshgrid(*freqs, indexing="ij")
        k2 = KX**2 + KY**2 + KZ**2
        width = p.sigma**2 - 2.0 * p.sigma_s**2
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.exp(-width * k2 / 2.0) / k2
        g[0, 0, 0] = 0.0  # tinfoil boundary: drop k=0
        return COULOMB * (4.0 * math.pi / self.box.volume) * g

    def _build_offsets(self) -> np.ndarray:
        """Integer per-axis mesh offset ranges covering the cutoff."""
        nc = np.ceil(self.params.spreading_cutoff / self.h).astype(int)
        return nc

    # -- stencil plan -------------------------------------------------------

    def make_plan(
        self,
        positions: np.ndarray,
        out: MeshStencilPlan | None = None,
        kernels=None,
    ) -> MeshStencilPlan:
        """Build (or refill) the shared stencil plan for ``positions``.

        Pass a previous plan as ``out`` to reuse its storage across
        steps, and the kernel suite that will run the plan's passes as
        ``kernels``.  A compiled suite gets an axis-rows-only plan for
        its fused kernels, O(n·k) at any size; any other plan also
        serves the stencil cubes, whole or per kernel chunk as its
        memory budget allows.
        """
        n = len(positions)
        if out is None or out.n != n or out.gse is not self:
            out = MeshStencilPlan(self, n)
        return out.build(positions, kernels=kernels)

    # -- spreading ----------------------------------------------------------

    def spread_weights(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-atom mesh contributions.

        Returns ``(flat_idx, weights, disp)``: for each atom (axis 0)
        and stencil point (axis 1), the flattened mesh index, the
        Gaussian weight ``h³ g_{sigma_s}(d)`` (zero outside the
        spreading cutoff — the match-unit test), and the displacement
        vector from mesh point to atom.

        This is the dense compatibility view of :class:`MeshStencilPlan`
        (the ``disp`` tensor is materialized here and only here); the
        hot paths hold the plan instead.
        """
        plan = self.make_plan(positions)
        n = plan.n
        kx, ky, kz = plan.shape
        d = np.empty((n, kx * ky * kz, 3))
        d[:, :, 0] = np.broadcast_to(
            plan.axis_d[0][:, :, None, None], (n, kx, ky, kz)
        ).reshape(n, -1)
        d[:, :, 1] = np.broadcast_to(
            plan.axis_d[1][:, None, :, None], (n, kx, ky, kz)
        ).reshape(n, -1)
        d[:, :, 2] = np.broadcast_to(
            plan.axis_d[2][:, None, None, :], (n, kx, ky, kz)
        ).reshape(n, -1)
        return plan.flat, plan.w.reshape(n, -1), d

    def spread(self, positions: np.ndarray, charges: np.ndarray, codec=None) -> np.ndarray:
        """Charge-spread onto the mesh: ``Q[m] = sum_i q_i h³ g(r_m - r_i)``.

        With ``codec`` (a :class:`~repro.fixedpoint.ScaledFixed`), each
        contribution is quantized and summed in integer arithmetic, so
        the mesh is independent of atom order and of how spreading work
        is distributed over simulated nodes (the machine's
        parallel-invariance requirement).  Use
        :meth:`spread_contributions` to deposit subsets into a shared
        integer mesh.
        """
        plan = self.make_plan(positions)
        if codec is not None:
            acc = np.zeros(self.mesh_point_count(), dtype=np.int64)
            plan.spread_codes(charges, acc, codec)
            return codec.reconstruct(codec.wrap(acc)).reshape(tuple(self.mesh))
        Q = np.zeros(self.mesh_point_count())
        plan.spread_float(charges, Q)
        return Q.reshape(tuple(self.mesh))

    def spread_contributions(
        self, positions: np.ndarray, charges: np.ndarray, mesh_acc: np.ndarray, codec
    ) -> None:
        """Deposit quantized spreading contributions into ``mesh_acc``.

        ``mesh_acc`` is a flat int64 accumulator; deposits commute, so
        any partition of atoms over callers yields identical bits.
        """
        self.make_plan(positions).spread_codes(charges, mesh_acc, codec)

    # -- mesh solve -----------------------------------------------------------

    def solve(self, Q: np.ndarray) -> tuple[np.ndarray, float]:
        """Convolve mesh charge with the Green's function.

        Returns the potential mesh ``phi`` and the k-space energy
        ``E = 1/2 sum_m Q[m] phi[m]``.
        """
        Qhat = np.fft.fftn(Q.astype(np.complex128))
        phi = np.real(np.fft.ifftn(self._green * Qhat)) * Q.size
        energy = 0.5 * float(np.sum(Q * phi))
        return phi, energy

    def solve_stack(self, Qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`solve` over a ``(R, *mesh)`` charge stack.

        One FFT/convolution/inverse-FFT pass covers all R replica
        meshes.  NumPy's pocketfft transforms each trailing-axes block
        independently, so every replica's potential mesh is bitwise the
        slice a solo :meth:`solve` returns (pinned by the property
        tests); per-replica energies are summed over each contiguous
        ``Q[r] * phi[r]`` block exactly as solo.
        """
        Qhat = np.fft.fftn(Qs.astype(np.complex128), axes=(1, 2, 3))
        phi = np.real(np.fft.ifftn(self._green[None] * Qhat, axes=(1, 2, 3)))
        phi = phi * float(Qs[0].size)
        energies = np.array(
            [0.5 * float(np.sum(Qs[r] * phi[r])) for r in range(len(Qs))]
        )
        return phi, energies

    # -- interpolation ----------------------------------------------------------

    def interpolate_potential(self, positions: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Per-atom potential ``phi_i = sum_m phi[m] h³ g(r_i - r_m)``."""
        return self.make_plan(positions).interpolate_potential(phi)

    def interpolate_forces(
        self, positions: np.ndarray, charges: np.ndarray, phi: np.ndarray
    ) -> np.ndarray:
        """Force interpolation: ``F_i = q_i sum_m phi[m] w(d) d / sigma_s²``."""
        return self.make_plan(positions).interpolate_forces(charges, phi)

    # -- composition ---------------------------------------------------------------

    def mesh_pass(
        self, positions: np.ndarray, charges: np.ndarray, lanes: int = 1,
        codec=None, kernels=None, plan: MeshStencilPlan | None = None,
        timers=None, before_solve=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The long-range pass of every engine: plan, spread, solve, gather.

        ``positions`` stacks R = ``lanes`` systems of n atoms along the
        atom axis (lane r owns rows ``[r·n, (r+1)·n)``) that share the
        n ``charges``; returns the ``(R,)`` k-space energies and the
        ``(R·n, 3)`` mesh forces.  Combine with the real-space sum, self
        energy, and excluded-pair corrections for total electrostatics.
        ``codec`` enables order-invariant quantized spreading (see
        :meth:`spread`); ``before_solve`` is called between spreading
        and the solve (the machine accounts its FFT traffic there);
        ``timers``, when given, are charged ``mesh_plan`` /
        ``mesh_spread`` / ``mesh_unquantize`` / ``mesh_fft`` /
        ``mesh_interp``.  ``kernels`` is the suite the plan's passes run
        on (a compiled one spreads and gathers from the axis rows, with
        no O(n·k³) cube anywhere) and ``plan`` a
        :class:`MeshStencilPlan` of R·n atoms whose storage — rows,
        cubes, scratch, lane views, mesh accumulator — is refilled
        instead of reallocated; callers that evaluate repeatedly keep
        one.  Neither changes a bit of the result.

        One plan covers all R·n rows; each lane spreads and gathers over
        its own row view of it (chunk loops restart there, so the
        chunk-sensitive float spread keeps the lane's solo bits) into
        its own mesh slab and force rows.  The lanes are the parallel
        unit: farmed through ``kernels.map_chunks`` (a plain loop at one
        thread or one lane), every lane calling the same single-threaded
        kernels.  Lanes write disjoint outputs, so farming cannot
        reorder a reduction.
        """
        R = int(lanes)
        n = len(positions) // R
        charges = np.asarray(charges, dtype=np.float64)
        time = timers.time if timers is not None else (lambda name: nullcontext())

        def each_lane(fn) -> None:
            if kernels is not None:
                kernels.map_chunks(fn, R)
            else:
                for r in range(R):
                    fn(r)

        with time("mesh_plan"):
            plan = self.make_plan(positions, out=plan, kernels=kernels)
            views = plan._lane_views(R)
        with time("mesh_spread"):
            if codec is not None:
                acc = plan._accumulator(R)
                each_lane(lambda r: views[r].spread_codes(charges, acc[r], codec, kernels=kernels))
            else:
                Q = np.zeros((R, self.mesh_point_count()))
                each_lane(lambda r: views[r].spread_float(charges, Q[r], kernels=kernels))
        if codec is not None:
            with time("mesh_unquantize"):
                Q = codec.reconstruct(codec.wrap(acc))
        Q = Q.reshape(R, *(int(m) for m in self.mesh))
        if before_solve is not None:
            before_solve()
        with time("mesh_fft"):
            if kernels is not None and kernels.threads > 1 and R > 1:
                # Per-lane solo transforms in worker threads: the
                # stacked solve is pinned bitwise to R solo solves, so
                # this is the same bytes with the lane axis farmed out
                # (pocketfft releases the GIL).
                phi, energies = np.empty(Q.shape), np.empty(R)

                def solve_lane(r):
                    phi[r], energies[r] = self.solve(Q[r])

                kernels.map_chunks(solve_lane, R)
            else:
                phi, energies = self.solve_stack(Q)
        with time("mesh_interp"):
            forces = np.empty((R * n, 3))
            each_lane(
                lambda r: views[r].interpolate_forces(
                    charges, phi[r], out=forces[r * n : (r + 1) * n], kernels=kernels
                )
            )
        return energies, forces

    def kspace(
        self, positions: np.ndarray, charges: np.ndarray, codec=None,
        kernels=None, plan: MeshStencilPlan | None = None,
    ) -> tuple[float, np.ndarray]:
        """Full k-space pass for one system: :meth:`mesh_pass` with one lane.

        Returns (energy, forces); ``codec``, ``kernels`` and ``plan``
        are :meth:`mesh_pass`'s.
        """
        energies, forces = self.mesh_pass(
            positions, charges, codec=codec, kernels=kernels, plan=plan
        )
        return float(energies[0]), forces

    def mesh_point_count(self) -> int:
        return int(np.prod(self.mesh))

    def stencil_size(self) -> int:
        """Mesh points each atom touches (the charge-spreading workload).

        The stencil is the (2 nc + 1)³ cube enclosing the spreading
        sphere; weights outside the sphere are zeroed by the cutoff
        test but still counted as touched (the hardware's match units
        consider and reject them the same way).
        """
        return int(np.prod(2 * self._offsets + 1))

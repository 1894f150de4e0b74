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
:class:`MeshStencilPlan` per evaluation, built from the position codes:
the separable axis weights, displacements and mesh indices are computed
once and reused by both passes (they are identical by construction —
the same radially symmetric kernel runs both on Anton's HTIS).  The plan
stores only those per-axis rows; the kernel suite's ``mesh_*_axes``
primitives evaluate every atom–mesh-point weight from them, on either
tier, so the mesh arithmetic lives in :mod:`repro.kernels` alone.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ewald.kernels import EWALD_TOLERANCE, choose_sigma
from repro.geometry import Box
from repro.geometry.codes import cell_fractions
from repro.kernels import NUMPY_SUITE
from repro.kernels.fft import bit_reverse_permutation, stage_table
from repro.util import COULOMB

__all__ = ["GSEParams", "GaussianSplitEwald", "MeshStencilPlan"]

#: Atom rows per chunk of the unquantized spread, the one plan kernel
#: whose bits depend on its chunking (a float bincount per chunk).
_FLOAT_CHUNK = 512

#: :meth:`GSEParams.choose`'s calibration, which lands the total force
#: error in Table 4's 1e-5 to 1e-4 band: ``sigma_s`` is this fraction
#: of ``sigma / sqrt(2)`` ...
SIGMA_S_FACTOR = 0.5
#: ... floored at this many mesh spacings, so the grid resolves it; the
#: spreading cutoff is this many ``sigma_s``.
SIGMA_S_PER_H = 1.05
SPREADING_RADIUS_SIGMAS = 5.5


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
        real_space_tolerance: float = EWALD_TOLERANCE,
    ) -> "GSEParams":
        """Pick consistent GSE parameters for a cutoff and mesh.

        ``sigma`` comes from the real-space tolerance at the cutoff
        (larger cutoff -> larger sigma -> coarser mesh suffices: the
        Table 2 tradeoff).  ``sigma_s`` is a fixed fraction of sigma,
        floored at :data:`SIGMA_S_PER_H` mesh spacings so the grid
        resolves it.
        """
        sigma = choose_sigma(cutoff, real_space_tolerance)
        h = float(np.max(box.lengths / np.asarray(mesh)))
        sigma_s = max(SIGMA_S_FACTOR * sigma / math.sqrt(2.0), SIGMA_S_PER_H * h)
        if sigma**2 <= 2.0 * sigma_s**2:
            raise ValueError(
                f"mesh {mesh} too coarse for cutoff {cutoff}: spreading "
                f"Gaussian {sigma_s:.2f} A cannot stay under sigma/sqrt(2)"
            )
        return cls(
            sigma=sigma,
            sigma_s=sigma_s,
            mesh=tuple(mesh),
            spreading_cutoff=SPREADING_RADIUS_SIGMAS * sigma_s,
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
    """Shared stencil rows for one set of atom positions.

    Built once per mesh evaluation and reused by charge spreading and
    force interpolation.  What is stored is only what is separable: per
    atom and axis, the Gaussian weight row ``axis_w`` (x pre-scaled by
    the stencil norm), the displacement row ``axis_d`` and the wrapped
    int32 mesh-index row ``axis_i`` — ``(n, kx + ky + kz)`` elements of
    each.  The suite's ``mesh_*_axes`` kernels evaluate every
    atom–mesh-point weight from those rows, as Anton's HTIS does; the
    plan holds no mesh arithmetic of its own.

    Every kernel is strictly per-atom arithmetic followed by a
    commutative reduction (integer scatter, float bincount in element
    order, or ordered sums over each atom's own stencil), so the results
    are bitwise independent of how callers partition the atoms into
    plans — the machine's parallel-invariance requirement.
    """

    __slots__ = (
        "gse", "n", "shape", "axis_w", "axis_d", "axis_i",
        "_lanes", "_acc", "_kept", "__weakref__",
    )

    def __init__(self, gse: "GaussianSplitEwald", n: int):
        self.gse = gse
        self.n = int(n)
        self.shape = tuple(int(2 * c + 1) for c in gse._offsets)
        self.axis_w = [np.empty((self.n, k)) for k in self.shape]
        self.axis_d = [np.empty((self.n, k)) for k in self.shape]
        self.axis_i = [np.empty((self.n, k), dtype=np.int32) for k in self.shape]
        self._lanes = self._acc = None
        self._kept = {}

    # -- construction ------------------------------------------------------

    def build(self, codes: np.ndarray) -> "MeshStencilPlan":
        """Fill the plan's rows for the position codes ``codes`` (row i of
        every array is atom i).

        Per axis, a code's cell ``b`` and exact offset ``f`` in it
        (:func:`~repro.geometry.codes.cell_fractions`) give stencil point
        ``o`` the index ``(b + o) mod m`` and the displacement ``(f −
        o)·h``, rounded once (DESIGN.md, integer geometry).  Always in
        NumPy (``np.exp`` stays there, which keeps the bits trivially
        identical across tiers); no O(n·k³) array is touched.
        """
        g = self.gse
        inv_2ss2 = 1.0 / (2.0 * g.params.sigma_s**2)
        base, frac = cell_fractions(codes, g.mesh)
        for a, c in enumerate(g._offsets):
            d, w, i = self.axis_d[a], self.axis_w[a], self.axis_i[a]
            o = np.arange(-c, c + 1)
            np.subtract(frac[:, a : a + 1], o, out=d)
            np.multiply(d, g.h[a], out=d)
            np.mod(base[:, a : a + 1] + o, g.mesh[a], out=i, casting="unsafe")
            np.multiply(d, d, out=w)
            np.negative(w, out=w)
            np.multiply(w, inv_2ss2, out=w)
            np.exp(w, out=w)
        self.axis_w[0] *= g._spread_norm
        return self

    def _axes(self) -> tuple:
        """What every mesh kernel takes after its output: rows, mesh, c2."""
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
        view; rebuild the parent.  A view holds no reference to its
        parent, so a parent that keeps its views is no reference cycle,
        and is freed with its holder instead of whenever the cyclic
        collector next runs.
        """
        v = MeshStencilPlan.__new__(MeshStencilPlan)
        v.gse = self.gse
        v.n = int(hi - lo)
        v.shape = self.shape
        v.axis_w = [a[lo:hi] for a in self.axis_w]
        v.axis_d = [a[lo:hi] for a in self.axis_d]
        v.axis_i = [a[lo:hi] for a in self.axis_i]
        v._lanes = v._acc = v._kept = None
        return v

    def _lane_views(self, lanes: int) -> list["MeshStencilPlan"]:
        """This plan as ``lanes`` equal runs of rows: itself, or kept views
        (valid across refills)."""
        if lanes == 1:
            return [self]
        if self._lanes is None or len(self._lanes) != lanes:
            n = self.n // lanes
            self._lanes = [self.rows_view(r * n, (r + 1) * n) for r in range(lanes)]
        return self._lanes

    def _accumulator(self, lanes: int) -> list[np.ndarray]:
        """The lane rows of the kept ``(lanes, mesh points)`` int64 mesh
        accumulator ``_acc``, zeroed."""
        _, self._acc, rows = self._mesh_buffer("acc", lanes, np.int64)
        self._acc[...] = 0
        return rows

    def _mesh_buffer(self, name: str, lanes: int, dtype=np.float64) -> tuple:
        """Kept ``(lanes, mesh points)`` buffer ``name`` as ``(lanes, mx, my,
        mz)``, as ``(lanes, points)`` and as its lane rows.

        The same objects every pass, like the plan's other storage, so
        the C kernels read each pointer once (``kernels.suite._ptr``).
        """
        hit = self._kept.get(name)
        if hit is None or len(hit[2]) != lanes:
            flat = np.zeros((lanes, self.gse.mesh_point_count()), dtype=dtype)
            shape = (lanes, *(int(m) for m in self.gse.mesh))
            hit = self._kept[name] = (flat.reshape(shape), flat, list(flat))
        return hit

    def _force_rows(self, lanes: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """The kept ``(n, 3)`` mesh-force buffer and its lane rows."""
        hit = self._kept.get("forces")
        if hit is None or len(hit[1]) != lanes:
            forces, n = np.empty((self.n, 3)), self.n // lanes
            rows = [forces[r * n : (r + 1) * n] for r in range(lanes)]
            hit = self._kept["forces"] = (forces, rows)
        return hit

    def _vector(self, name: str, n: int) -> np.ndarray:
        """The kept float64 vector ``name`` of length ``n``."""
        v = self._kept.get(name)
        if v is None or len(v) != n:
            v = self._kept[name] = np.empty(n)
        return v

    # -- kernels -----------------------------------------------------------

    def spread_codes(
        self, charges: np.ndarray, mesh_acc: np.ndarray, codec, kernels=NUMPY_SUITE,
        qc: np.ndarray | None = None,
    ) -> None:
        """Quantize and scatter ``w · q`` into the flat int64 mesh.

        Codes are ``rint(w * (q * scale / limit))`` — per-atom
        arithmetic, so how atoms are split over plans cannot change any
        code — summed by integer adds, which commute.  ``qc``, when
        given, is ``q * scale / limit`` already formed.
        """
        if qc is None:
            qc = np.asarray(charges, dtype=np.float64) * (codec.fmt.scale / codec.limit)
        kernels.mesh_spread_axes(mesh_acc, *self._axes(), qc)

    def spread_float(
        self, charges: np.ndarray, mesh: np.ndarray,
        chunk: int = _FLOAT_CHUNK, kernels=NUMPY_SUITE,
    ) -> None:
        """Unquantized spreading into the flat float64 ``mesh``.

        A float bincount per ``chunk`` rows, summed in element order:
        chunk-*sensitive*, unlike every other plan kernel.
        """
        charges = np.asarray(charges, dtype=np.float64)
        kernels.mesh_spread_float_axes(mesh, *self._axes(), charges, chunk)

    def interpolate_forces(
        self, charges: np.ndarray, phi: np.ndarray, out=None, kernels=NUMPY_SUITE,
    ) -> np.ndarray:
        """Separable gather-and-contract force interpolation.

        Per atom, the three stencil sums ``Σ phi[idx]·w·(dx, dy, dz)``
        times ``q / sigma_s²``.  The sums are float sums, so their order
        is the contract (DESIGN.md, gather-order lemma), and both tiers
        add in it — no BLAS anywhere, so no host library owns a bit.
        Points outside the sphere add ``-0.0``, i.e. nothing.  Each
        atom's sums run over its own stencil, so how atoms are split
        over plans is invisible in the bits.
        """
        if out is None:
            out = np.empty((self.n, 3))
        flat = phi if phi.ndim == 1 else phi.ravel()
        kernels.mesh_gather_axes(out, *self._axes(), flat, 0, self.n)
        out *= (np.asarray(charges, dtype=np.float64) / self.gse.params.sigma_s**2)[:, None]
        return out


class GaussianSplitEwald:
    """GSE k-space evaluator for a fixed box and parameter set.

    Spreading and force interpolation are :class:`MeshStencilPlan`
    passes (:meth:`make_plan`); the mesh solve is :meth:`solve` /
    :meth:`solve_stack`.  :meth:`mesh_pass` composes them — plan,
    spread, solve, gather — once, for every engine: the float path
    (:meth:`kspace`, one lane), the batched ensemble (R lanes) and the
    simulated machine (one lane, FFT traffic accounted before the
    solve).
    """

    def __init__(self, box: Box, params: GSEParams):
        self.box = box
        self.params = params
        self.mesh = np.asarray(params.mesh, dtype=np.int64)
        self.h = box.lengths / self.mesh
        self.cell_volume = float(np.prod(self.h))
        self._offsets = self._build_offsets()
        #: Peak spreading weight ``h³ g_{sigma_s}(0)``: the stencil
        #: normalization, folded into the x weight row.
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

    def make_plan(self, codes: np.ndarray, out: MeshStencilPlan | None = None) -> MeshStencilPlan:
        """Build (or refill) the shared stencil plan for the position codes ``codes``.

        Pass a previous plan as ``out`` to reuse its storage across
        steps.  The plan is O(n·k) on every tier.
        """
        n = len(codes)
        if out is None or out.n != n or out.gse is not self:
            out = MeshStencilPlan(self, n)
        return out.build(codes)

    # -- mesh solve -----------------------------------------------------------

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, tuple]:
        """The solve's Green's function on the half spectrum, x and y
        bit-reversed as the forward transform leaves them, and the
        largest axis's twiddle table (power-of-two meshes only)."""
        mx, my, mz = (int(m) for m in self.mesh)
        if any(m & (m - 1) for m in (mx, my, mz)):
            raise ValueError(f"the mesh solve is radix-2: mesh {(mx, my, mz)} is not powers of two")
        rx, ry = bit_reverse_permutation(mx), bit_reverse_permutation(my)
        green = np.ascontiguousarray(self._build_green()[rx][:, ry][:, :, : mz // 2 + 1])
        return green, stage_table(max(mx, my, mz))

    def solve(self, Q: np.ndarray, kernels=NUMPY_SUITE) -> tuple[np.ndarray, float]:
        """Convolve mesh charge with the Green's function.

        Returns the potential mesh ``phi`` and the k-space energy
        ``E = 1/2 sum_m Q[m] phi[m]``.  The solve is the suite's
        ``mesh_solve`` (:mod:`repro.kernels.fft`), one lane.
        """
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        phi, energy = np.empty((1, *Q.shape)), np.empty(1)
        kernels.mesh_solve(phi, energy, Q[None], *self._spectral)
        return phi[0], float(energy[0])

    def solve_stack(
        self, Qs: np.ndarray, kernels=NUMPY_SUITE, out: tuple | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`solve` over a ``(R, *mesh)`` charge stack.

        One ``mesh_solve`` covers all R lanes (the compiled suite farms
        them over its threads); every lane's transform and energy sum
        are its own, so each lane's potential and energy are bitwise
        what a solo :meth:`solve` returns.  ``out``, when given, is the
        ``(phi, energies)`` pair to fill.
        """
        Qs = np.ascontiguousarray(Qs, dtype=np.float64)
        phi, energies = (np.empty(Qs.shape), np.empty(len(Qs))) if out is None else out
        kernels.mesh_solve(phi, energies, Qs, *self._spectral)
        return phi, energies

    # -- composition ---------------------------------------------------------------

    def mesh_pass(
        self, codes: np.ndarray, charges: np.ndarray, lanes: int = 1,
        codec=None, kernels=NUMPY_SUITE, plan: MeshStencilPlan | None = None,
        timers=None, before_solve=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The long-range pass of every engine: plan, spread, solve, gather.

        The position ``codes`` stack R = ``lanes`` systems of n atoms along the
        atom axis (lane r owns rows ``[r·n, (r+1)·n)``) that share the
        n ``charges``; returns the ``(R,)`` k-space energies and the
        ``(R·n, 3)`` mesh forces.  Combine with the real-space sum, self
        energy, and excluded-pair corrections for total electrostatics.
        ``codec`` (a :class:`~repro.fixedpoint.ScaledFixed`) quantizes
        each spreading contribution and sums the mesh in integer
        arithmetic, so the mesh is independent of atom order and of how
        atoms are split over plans; ``before_solve`` is called between
        spreading and the solve (the machine accounts its FFT traffic there);
        ``timers``, when given, are charged ``mesh_plan`` /
        ``mesh_spread`` / ``mesh_unquantize`` / ``mesh_fft`` /
        ``mesh_interp``.  ``kernels`` is the suite the plan's passes and
        the solve run on and ``plan`` a :class:`MeshStencilPlan` of R·n
        atoms whose storage — rows, lane views, meshes, scaled charges,
        force rows — is refilled instead of reallocated; callers that
        evaluate repeatedly keep one.  The returned forces are then the
        plan's, valid until its next pass.  Neither changes a bit of the
        result.

        One plan covers all R·n rows; each lane spreads and gathers over
        its own row view of it (chunk loops restart there, so the
        chunk-sensitive float spread keeps the lane's solo bits) into
        its own mesh slab and force rows.  The lanes are the parallel
        unit: farmed through ``kernels.map_chunks`` (a plain loop at one
        thread or one lane), every lane calling the same single-threaded
        kernels, the solve included.  Lanes write disjoint outputs, so
        farming cannot reorder a reduction.
        """
        R = int(lanes)
        charges = np.asarray(charges, dtype=np.float64)
        time = timers.time if timers is not None else (lambda name: nullcontext())

        def each_lane(fn) -> None:
            kernels.map_chunks(fn, R)

        with time("mesh_plan"):
            plan = self.make_plan(codes, out=plan)
            views = plan._lane_views(R)
        Q, Q_flat, Q_rows = plan._mesh_buffer("Q", R)
        with time("mesh_spread"):
            if codec is not None:
                acc = plan._accumulator(R)
                qc = np.multiply(
                    charges, codec.fmt.scale / codec.limit, out=plan._vector("qc", len(charges))
                )
                each_lane(
                    lambda r: views[r].spread_codes(charges, acc[r], codec, kernels=kernels, qc=qc)
                )
            else:
                Q_flat[...] = 0.0
                each_lane(lambda r: views[r].spread_float(charges, Q_rows[r], kernels=kernels))
        if codec is not None:
            with time("mesh_unquantize"):
                codec.reconstruct(codec.wrap(plan._acc), out=Q_flat)
        if before_solve is not None:
            before_solve()
        phi, _, phi_rows = plan._mesh_buffer("phi", R)
        with time("mesh_fft"):
            energies = plan._vector("energies", R)
            self.solve_stack(Q, kernels=kernels, out=(phi, energies))
        with time("mesh_interp"):
            forces, force_rows = plan._force_rows(R)
            each_lane(
                lambda r: views[r].interpolate_forces(
                    charges, phi_rows[r], out=force_rows[r], kernels=kernels
                )
            )
        return energies.copy(), forces

    def kspace(
        self, codes: np.ndarray, charges: np.ndarray, codec=None,
        kernels=NUMPY_SUITE, plan: MeshStencilPlan | None = None,
    ) -> tuple[float, np.ndarray]:
        """Full k-space pass for one system: :meth:`mesh_pass` with one lane.

        Returns (energy, forces); ``codec``, ``kernels`` and ``plan`` are
        :meth:`mesh_pass`'s.
        """
        energies, forces = self.mesh_pass(
            codes, charges, codec=codec, kernels=kernels, plan=plan
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

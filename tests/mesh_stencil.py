"""A stencil plan's weights and mesh indices, for tests that inspect them.

``MeshStencilPlan`` stores only per-axis rows; the suite's kernels form
each atom–mesh-point weight from them.  Tests that look at the weights
themselves (or at the potential they interpolate) take them from the
NumPy suite's own block builder over every atom, so no second copy of
that arithmetic exists.
"""

import numpy as np

from repro.kernels import NUMPY_SUITE


def stencil(plan) -> tuple[np.ndarray, np.ndarray]:
    """``(w, flat)`` of every atom of ``plan``, each ``(n, k)`` x-major:
    the masked weights (``+0.0`` outside the sphere) and the int64 flat
    mesh indices."""
    w, flat, _inside = NUMPY_SUITE.mesh_block(*plan._axes(), 0, plan.n)
    return w, flat


def potential(plan, phi: np.ndarray) -> np.ndarray:
    """Per-atom potential ``Σ_m phi[m]·w_im`` interpolated from the mesh ``phi``."""
    w, flat = stencil(plan)
    return np.sum(np.take(phi.ravel(), flat) * w, axis=1)

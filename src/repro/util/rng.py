"""Deterministic random-number helpers.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` seeded explicitly, so simulations and
benchmarks are reproducible run to run (a property the paper's hardware
guarantees and that we preserve in the functional simulation).
"""

from __future__ import annotations

import numpy as np

#: Default seed used by builders and examples when none is supplied.
DEFAULT_SEED: int = 20090101


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a PCG64 generator with a fixed default seed.

    Parameters
    ----------
    seed:
        Explicit seed; ``None`` selects :data:`DEFAULT_SEED` (*not* OS
        entropy — determinism is a feature here, matching Anton's
        bit-reproducible execution model).
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


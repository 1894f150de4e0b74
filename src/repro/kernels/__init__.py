"""Optional compiled kernel tier for the machine simulation hot loops.

See :mod:`repro.kernels.suite` for the tier contract and
:mod:`repro.kernels.build` for the lazy C build.  The public surface is
:func:`get_suite`, the one resolver for the ``kernel_tier`` /
``kernel_threads`` knobs (argument, then ``REPRO_KERNEL_TIER`` /
``REPRO_KERNEL_THREADS``, then the default) and the one place a tier
is chosen, :data:`NUMPY_SUITE`, the suite every component holds unless
handed another, and :func:`kernel_info`, the record of which build a
run executes on.
"""

from repro.kernels.build import KernelBuildError, available
from repro.kernels.suite import (
    KERNEL_TIERS,
    NUMPY_SUITE,
    CompiledKernels,
    DegenerateWaterError,
    NumpyKernels,
    PairTableSpec,
    get_suite,
    kernel_info,
    make_pair_spec,
)

__all__ = [
    "KERNEL_TIERS",
    "KernelBuildError",
    "CompiledKernels",
    "DegenerateWaterError",
    "NumpyKernels",
    "NUMPY_SUITE",
    "PairTableSpec",
    "available",
    "get_suite",
    "kernel_info",
    "make_pair_spec",
]

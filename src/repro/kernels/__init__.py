"""Optional compiled kernel tier for the machine simulation hot loops.

See :mod:`repro.kernels.suite` for the tier contract and
:mod:`repro.kernels.build` for the lazy C build.  The public surface is
:func:`get_suite`, the resolver for the ``kernel_tier`` /
``kernel_threads`` knobs, :func:`resolve_config`, the shared
env-var/argument resolution both the machine and ensemble layers use,
and :func:`kernel_info`, the record of which build a run executes on.
"""

from repro.kernels.build import KernelBuildError, available
from repro.kernels.suite import (
    KERNEL_TIERS,
    CompiledKernels,
    KernelConfig,
    NumpyKernels,
    PairTableSpec,
    get_suite,
    kernel_info,
    make_pair_spec,
    resolve_config,
)

__all__ = [
    "KERNEL_TIERS",
    "KernelBuildError",
    "KernelConfig",
    "CompiledKernels",
    "NumpyKernels",
    "PairTableSpec",
    "available",
    "get_suite",
    "kernel_info",
    "make_pair_spec",
    "resolve_config",
]

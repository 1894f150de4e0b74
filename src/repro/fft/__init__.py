"""FFT substrate: from-scratch radix-2 kernels and the simulated
distributed 3-D FFT with message accounting (paper Section 3.2.2)."""

from repro.fft.distributed import DistributedFFT3D
from repro.fft.radix2 import bit_reverse_permutation, fft1d, fft3d, ifft1d

__all__ = [
    "DistributedFFT3D",
    "bit_reverse_permutation",
    "fft1d",
    "fft3d",
    "ifft1d",
]

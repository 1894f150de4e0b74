"""Fixed-point arithmetic with Anton's semantics (paper Section 4).

Determinism, parallel invariance, and exact time reversibility all rest
on this package: values are quantized once with round-to-nearest-even
and summed with exact, associative, wrapping integer arithmetic.
"""

from repro.fixedpoint.accumulate import (
    FixedAccumulator,
    scatter_add_int64,
    wrapping_sum,
)
from repro.fixedpoint.blockfloat import BlockFloatCodec
from repro.fixedpoint.format import FixedFormat, round_nearest_even
from repro.fixedpoint.scaled import ScaledFixed

__all__ = [
    "FixedAccumulator",
    "scatter_add_int64",
    "wrapping_sum",
    "BlockFloatCodec",
    "FixedFormat",
    "round_nearest_even",
    "ScaledFixed",
]

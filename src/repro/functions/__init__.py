"""Tabulated function evaluation: Remez minimax fits, tiered r²-indexed
piecewise-cubic tables with block-float coefficients, and PPIP-style
kernel table sets (paper Section 4, Figure 4)."""

from repro.functions.evaluator import KernelTableSet
from repro.functions.remez import MinimaxFits, polyval_ascending, remez_fit_rows
from repro.functions.tables import (
    ANTON_ELECTROSTATIC_TIERS,
    Tier,
    TieredTable,
    uniform_tiers,
)

__all__ = [
    "KernelTableSet",
    "MinimaxFits",
    "polyval_ascending",
    "remez_fit_rows",
    "ANTON_ELECTROSTATIC_TIERS",
    "Tier",
    "TieredTable",
    "uniform_tiers",
]

"""Forecast error metrics: RMSE, MAPE, SMAPE, and SMAPE improvement.

MAPE and SMAPE are kept in canonical fraction form here (SMAPE bounded by 2);
any x100 display scaling happens only in the report layer, labeled.
Zero-denominator terms are skipped and counted, never epsilon-inflated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllTermsSkipped, Empty, InputOverflow, LengthMismatch, ZeroBase


@dataclass(frozen=True)
class MetricsResult:
    rmse: float
    mape: float
    smape: float
    n_used: int
    n_skipped_zero_denominator: int


# a term whose denominator is at most this is skipped
ZERO_DENOMINATOR = 1e-12


def smape_improvement(base_smape: float, reslearn_smape: float) -> float:
    """Percent reduction in SMAPE going from the base model to the combined one."""
    if base_smape <= 0:
        raise ZeroBase("improvement undefined for non-positive base SMAPE")
    return 100.0 * (base_smape - reslearn_smape) / base_smape


def evaluate(actual, predicted) -> MetricsResult:
    """RMSE, MAPE and SMAPE of `predicted` against `actual`. An error whose
    square, or whose squares' sum, overflows float64 raises InputOverflow; a
    metric with every term skipped raises AllTermsSkipped."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise LengthMismatch(f"actual {a.shape} vs predicted {p.shape}")
    if a.size == 0:
        raise Empty("metrics need at least one term")
    try:
        with np.errstate(over="raise"):
            rmse = float(np.sqrt(np.mean((p - a) ** 2)))
    except FloatingPointError:
        raise InputOverflow("the mean squared error overflows float64: an actual value "
                            "lies far beyond the predictions") from None
    used = np.abs(a) > ZERO_DENOMINATOR
    if not used.any():
        raise AllTermsSkipped("every actual value is zero")
    mape = float(np.mean(np.abs(a[used] - p[used]) / np.abs(a[used])))
    denom = (np.abs(a) + np.abs(p)) / 2.0
    both = denom > ZERO_DENOMINATOR
    if not both.any():
        raise AllTermsSkipped("every term has both values zero")
    smape = float(np.mean(np.abs(p[both] - a[both]) / denom[both]))
    n_used = int(used.sum())
    return MetricsResult(rmse=rmse, mape=mape, smape=smape, n_used=n_used,
                         n_skipped_zero_denominator=a.size - n_used)

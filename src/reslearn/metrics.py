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


def _validate(actual, predicted):
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape:
        raise LengthMismatch(f"actual {a.shape} vs predicted {p.shape}")
    if a.size == 0:
        raise Empty("metrics need at least one term")
    return a, p


def rmse(actual, predicted) -> float:
    """Root mean squared error. An error whose square, or whose squares' sum,
    overflows float64 raises InputOverflow."""
    a, p = _validate(actual, predicted)
    try:
        with np.errstate(over="raise"):
            return float(np.sqrt(np.mean((p - a) ** 2)))
    except FloatingPointError:
        raise InputOverflow("the mean squared error overflows float64: an actual value "
                            "lies far beyond the predictions") from None


def mape(actual, predicted, eps: float = 1e-12) -> float:
    a, p = _validate(actual, predicted)
    mask = np.abs(a) > eps
    if not mask.any():
        raise AllTermsSkipped("every actual value is zero")
    return float(np.mean(np.abs(a[mask] - p[mask]) / np.abs(a[mask])))


def smape(actual, predicted, eps: float = 1e-12) -> float:
    a, p = _validate(actual, predicted)
    denom = (np.abs(a) + np.abs(p)) / 2.0
    mask = denom > eps
    if not mask.any():
        raise AllTermsSkipped("every term has both values zero")
    return float(np.mean(np.abs(p[mask] - a[mask]) / denom[mask]))


def smape_improvement(base_smape: float, reslearn_smape: float) -> float:
    """Percent reduction in SMAPE going from the base model to the combined one."""
    if base_smape <= 0:
        raise ZeroBase("improvement undefined for non-positive base SMAPE")
    return 100.0 * (base_smape - reslearn_smape) / base_smape


def evaluate(actual, predicted, eps: float = 1e-12) -> MetricsResult:
    a, p = _validate(actual, predicted)
    mask = np.abs(a) > eps
    n_skipped = int((~mask).sum())
    return MetricsResult(
        rmse=rmse(a, p),
        mape=mape(a, p, eps),
        smape=smape(a, p, eps),
        n_used=int(mask.sum()),
        n_skipped_zero_denominator=n_skipped,
    )

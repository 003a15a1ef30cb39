"""Feature CSV reading, segmentation, chronological splits, scaling,
windowing, and EDA helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSeries,
    SchemaMismatch,
    SeriesTooShort,
    SplitTooSmall,
)


@dataclass(frozen=True)
class SplitSpec:
    train_ratio: float = 0.5
    val_ratio_within_train: float = 0.2

    def __post_init__(self):
        if not 0 < self.train_ratio < 1:
            raise ConfigError("train_ratio must be in (0,1)")
        if not 0 < self.val_ratio_within_train < 1:
            raise ConfigError("val_ratio_within_train must be in (0,1)")


@dataclass
class SegmentedSeries:
    segments: list[np.ndarray]
    segment_size: int
    dropped: int          # trailing samples shorter than one segment

    @property
    def num_segments(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class Scaler:
    lo: float
    hi: float
    identity: bool = False   # set when the fit range was degenerate

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.identity:
            return np.asarray(values, dtype=np.float64).copy()
        return (np.asarray(values, dtype=np.float64) - self.lo) / (self.hi - self.lo)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        if self.identity:
            return np.asarray(scaled, dtype=np.float64).copy()
        return np.asarray(scaled, dtype=np.float64) * (self.hi - self.lo) + self.lo


@dataclass(frozen=True)
class RunsTestResult:
    n_runs: int
    z: float
    p_value: float


def impute_absent(values: list[float | None]) -> np.ndarray:
    """Forward-fill absent entries; leading absents take the first valid value."""
    out = np.empty(len(values), dtype=np.float64)
    last = None
    for i, v in enumerate(values):
        if v is not None:
            last = float(v)
            break
    if last is None:
        raise DegenerateSeries("every value is absent")
    for i, v in enumerate(values):
        if v is not None:
            last = float(v)
        out[i] = last
    return out


def read_feature_csv(text: str, feature: str) -> np.ndarray:
    """The `feature` column of a features CSV (`segment,f_c,f_s,f_iat`). `NA`
    marks an absent value: forward-filled in `f_iat`, 0 in the others. A
    malformed row or a cell that is not a finite number raises SchemaMismatch."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != "segment,f_c,f_s,f_iat":
        raise SchemaMismatch("expected header 'segment,f_c,f_s,f_iat'")
    col = {"f_c": 1, "f_s": 2, "f_iat": 3}[feature]
    raw = []
    for i, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise SchemaMismatch(f"line {i}: expected 4 fields, got {len(parts)}")
        cell = parts[col]
        if cell == "NA":
            raw.append(None)
            continue
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):     # nan and inf would reach training
            raise SchemaMismatch(f"line {i}: bad {feature} {cell!r}")
        raw.append(value)
    if feature == "f_iat":
        return impute_absent(raw)
    return np.array([0.0 if v is None else v for v in raw], dtype=np.float64)


def segment(values: np.ndarray, n: int) -> SegmentedSeries:
    values = np.asarray(values, dtype=np.float64)
    if values.size < n:
        raise SeriesTooShort(f"{values.size} values cannot fill one segment of {n}")
    x = values.size // n
    segments = [values[i * n:(i + 1) * n].copy() for i in range(x)]
    return SegmentedSeries(segments, n, dropped=values.size - x * n)


def split(
    values: np.ndarray, spec: SplitSpec, lookback: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chronological train/val/test split; never shuffles. Each part must be
    able to form at least one prediction window (length >= lookback + 1)."""
    values = np.asarray(values, dtype=np.float64)
    n_train, pool = split_sizes(values.size, spec, lookback)
    return values[:n_train], values[n_train:pool], values[pool:]


def split_sizes(n: int, spec: SplitSpec, lookback: int) -> tuple[int, int]:
    """Where `split` cuts `n` values: (train size, train + val size)."""
    pool = int(n * spec.train_ratio)
    n_val = int(pool * spec.val_ratio_within_train)
    n_train = pool - n_val
    if min(n_train, n_val, n - pool) < lookback + 1:
        raise SplitTooSmall(
            f"split {n_train}/{n_val}/{n - pool} cannot form windows of lookback {lookback}"
        )
    return n_train, pool


def rolling_mean(values: np.ndarray, window: int = 20) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ConfigError("window must be >= 1")
    if values.size < window:
        raise SeriesTooShort(f"{values.size} values < window {window}")
    view = np.lib.stride_tricks.sliding_window_view(values, window)
    return view.mean(axis=1)


def _median(values: np.ndarray) -> float:
    """`np.median` of a non-empty array of finite values, without the import
    of `numpy.ma` that `np.median` makes."""
    ordered, half = np.sort(values), values.size // 2
    return ordered[half] if values.size % 2 else (ordered[half - 1] + ordered[half]) / 2


def runs_test(values: np.ndarray) -> RunsTestResult:
    """Wald-Wolfowitz runs test about the median; ties at the median dropped."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DegenerateSeries("no values")
    signs = np.sign(values - _median(values))
    signs = signs[signs != 0]
    n1 = int((signs > 0).sum())
    n2 = int((signs < 0).sum())
    if n1 == 0 or n2 == 0:
        raise DegenerateSeries("all values on one side of the median")
    runs = int(1 + (signs[1:] != signs[:-1]).sum())
    n = n1 + n2
    mu = 2.0 * n1 * n2 / n + 1.0
    var = (2.0 * n1 * n2) * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    z = (runs - mu) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return RunsTestResult(n_runs=runs, z=z, p_value=p)


def eda_csv(values: np.ndarray, window: int) -> str:
    """Runs-test rows for the raw series and its rolling mean."""
    lines = ["series,n,n_runs,z,p_value"]
    for name, series in (("raw", values), ("rolling_mean", rolling_mean(values, window))):
        try:
            r = runs_test(series)
            lines.append(
                f"{name},{series.size},{r.n_runs},{format(r.z, '.6g')},{format(r.p_value, '.6g')}"
            )
        except DegenerateSeries:
            lines.append(f"{name},{series.size},NA,NA,NA")
    return "\n".join(lines) + "\n"


def minmax_scale(values: np.ndarray) -> tuple[np.ndarray, Scaler]:
    """Fit a [0,1] scaler; a constant series passes through with an identity
    scaler flagged rather than raising."""
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if hi <= lo:
        scaler = Scaler(lo, hi, identity=True)
        return values.copy(), scaler
    scaler = Scaler(lo, hi)
    return scaler.transform(values), scaler


def make_windows(values: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead supervised pairs: inputs (n-W, W), targets (n-W,)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < lookback + 1:
        raise SeriesTooShort(f"{values.size} values < lookback {lookback} + 1")
    inputs = np.lib.stride_tricks.sliding_window_view(values[:-1], lookback).copy()
    targets = values[lookback:].copy()
    return inputs, targets

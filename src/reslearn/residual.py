"""Two-stage residual learning: base sequence model plus an FCNN trained on
bias-shifted residuals, combined into one forecaster per segment."""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CheckpointError, ConfigError, LengthMismatch, ResLearnError
from .metrics import MetricsResult, evaluate
from .models import Predictor, PredictorConfig, TrainTrace, build_predictor
from .models.base import PREDICT_BLOCK, block_bounds
from .placement import spread, workers
from .seriesprep import (
    Scaler,
    SplitSpec,
    make_windows,
    minmax_scale,
    split,
)


@dataclass
class ResLearnModel:
    base: Predictor
    residual: Predictor
    res_b: float                       # |min(train residuals)|, scaled units
    scaler: Scaler


@dataclass
class SegmentReport:
    """One (kind, segment) training task's result. `model` is None for a
    failed segment, and unless the caller keeps models."""

    segment_index: int
    res_b: float = 0.0
    base_trace: TrainTrace | None = None
    residual_trace: TrainTrace | None = None
    base_val: MetricsResult | None = None
    base_test: MetricsResult | None = None
    combined_val: MetricsResult | None = None
    combined_test: MetricsResult | None = None
    failed: str | None = None
    # (actual, base, combined) on the test windows in physical units
    test_series: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    model: ResLearnModel | None = None


FORMAT_VERSION = 1


def save_reslearn(model: ResLearnModel, path) -> None:
    """Bundle base, residual, scaler, and the residual bias in one file."""
    meta = {
        "version": FORMAT_VERSION,
        "res_b": model.res_b,
        "scaler": {"lo": model.scaler.lo, "hi": model.scaler.hi,
                   "identity": model.scaler.identity},
        # format 1's field for a combine rule that kept res_b; always false
        "paper_literal_combine": False,
        "base_config": asdict(model.base.config),
        "residual_config": asdict(model.residual.config),
    }
    data = {f"base__{k}": v for k, v in model.base.params.items()}
    data.update({f"residual__{k}": v for k, v in model.residual.params.items()})
    np.savez(path, __meta__=json.dumps(meta), **data)


def load_reslearn(path) -> ResLearnModel:
    """The model that save_reslearn wrote to `path`. A file that is not such a
    checkpoint, in any part, raises CheckpointError."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":     # np.load would try the other numpy formats
            raise CheckpointError("not an npz archive")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    # zipfile raises RuntimeError for an encrypted member, NotImplementedError
    # for an unsupported compression or patched-data flag, and OSError for a
    # member offset that points before the start of the file
    except (ValueError, EOFError, zipfile.BadZipFile, RuntimeError, NotImplementedError,
            OSError) as exc:
        raise CheckpointError(f"not an npz archive: {exc}") from None
    if "__meta__" not in arrays:
        raise CheckpointError("missing checkpoint metadata")
    try:
        meta = json.loads(str(arrays["__meta__"]))
    except ValueError:
        raise CheckpointError("checkpoint metadata is not JSON") from None
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        # the weights are laid out here and filled from the file below
        base = build_predictor(PredictorConfig(**meta["base_config"]), draw=False)
        residual = build_predictor(PredictorConfig(**meta["residual_config"]), draw=False)
        s = meta["scaler"]
        scaler = Scaler(float(s["lo"]), float(s["hi"]), bool(s["identity"]))
        res_b, literal = float(meta["res_b"]), bool(meta["paper_literal_combine"])
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise CheckpointError(f"malformed metadata: {type(exc).__name__}: {exc}") from None
    if literal:
        raise CheckpointError("paper_literal_combine is set: its combine rule, which keeps "
                              "res_b in the forecast, is gone")
    for name, value in (("res_b", res_b), ("scaler.lo", scaler.lo), ("scaler.hi", scaler.hi)):
        if not math.isfinite(value):
            raise CheckpointError(f"{name} is not finite: {value}")
    if not scaler.identity and scaler.hi <= scaler.lo:
        raise CheckpointError(f"scaler.hi {scaler.hi:g} is not above scaler.lo {scaler.lo:g}")
    for prefix, model in (("base__", base), ("residual__", residual)):
        for k in model.params:
            key = prefix + k
            if key not in arrays:
                raise CheckpointError(f"missing parameter {key}")
            if arrays[key].shape != model.params[k].shape or arrays[key].dtype.kind != "f":
                raise CheckpointError(f"shape or dtype mismatch for {key}")
            if not np.isfinite(arrays[key]).all():
                raise CheckpointError(f"{key} has a non-finite value")
            model.params[k][...] = arrays[key]
    return ResLearnModel(base, residual, res_b, scaler)


def residual_targets(
    train_targets: np.ndarray, base_predictions: np.ndarray
) -> tuple[float, np.ndarray]:
    """The residuals' bias |min| and the residuals shifted by it, the training
    targets of the second-stage model."""
    train_targets = np.asarray(train_targets, dtype=np.float64)
    base_predictions = np.asarray(base_predictions, dtype=np.float64)
    if train_targets.shape != base_predictions.shape:
        raise LengthMismatch(
            f"targets {train_targets.shape} vs predictions {base_predictions.shape}"
        )
    if train_targets.size < 1:
        raise LengthMismatch("need at least one residual")
    res = train_targets - base_predictions
    res_b = float(abs(res.min()))
    return res_b, res + res_b


def combine_predictions(
    model: ResLearnModel, base_pred: np.ndarray, residual_pred: np.ndarray
) -> np.ndarray:
    """Base + residual predictions with the training-time bias removed, in
    physical units."""
    return model.scaler.inverse(base_pred + residual_pred - model.res_b)


def forecast(model: ResLearnModel, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both stages' predictions of the windows `inputs`, in scaled units, in
    one run of blocks per `placement.workers` process, cut at
    `block_bounds(n, k * PREDICT_BLOCK)` so that the bits are those of one
    `predict` of each; `placement.spread` runs them."""
    blocks = len(block_bounds(len(inputs), PREDICT_BLOCK)) - 1
    per_run = max(1, math.ceil(blocks / max(1, workers(blocks))))
    edges = block_bounds(len(inputs), per_run * PREDICT_BLOCK)
    runs = list(zip(edges, edges[1:])) or [(0, 0)]

    def stages(k: int) -> tuple[np.ndarray, np.ndarray]:
        x = inputs[slice(*runs[k])]
        return model.base.predict(x), model.residual.predict(x)

    base, residual = zip(*spread(stages, len(runs)))
    return np.concatenate(base), np.concatenate(residual)


def score(
    model: ResLearnModel, targets: np.ndarray, base_pred: np.ndarray, residual_pred: np.ndarray
) -> tuple[MetricsResult, MetricsResult, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The base and combined metrics of `model` given the scaled targets of
    some windows and both stages' predictions of them, and the (actual, base,
    combined) series in physical units."""
    actual, base = model.scaler.inverse(targets), model.scaler.inverse(base_pred)
    combined = combine_predictions(model, base_pred, residual_pred)
    return evaluate(actual, base), evaluate(actual, combined), (actual, base, combined)


def train_segment(
    index: int,
    values: np.ndarray,
    base_cfg: PredictorConfig,
    residual_cfg: PredictorConfig,
    split_spec: SplitSpec,
    keep_model: bool,
) -> SegmentReport:
    """The per-segment pipeline: split, scale on train, fit base, fit the
    residual learner on bias-shifted train residuals, score both stages on
    val and test in physical units. The report holds the model only when
    `keep_model` is set. A ResLearnError is recorded in the report's
    `failed`, with no model, so the caller can go on."""
    try:
        w = base_cfg.lookback
        train, val, test = split(values, split_spec, lookback=w)
        train_scaled, scaler = minmax_scale(train)
        x_train, y_train = make_windows(train_scaled, w)
        x_val, y_val = make_windows(scaler.transform(val), w)
        x_test, y_test = make_windows(scaler.transform(test), w)

        # fresh parameters per segment, with a segment-derived seed
        base = build_predictor(replace(base_cfg, seed=base_cfg.seed + 1000 * index))
        base_trace = base.fit(x_train, y_train, x_val, y_val)
        base_train, base_val, base_test = (base.predict(x) for x in (x_train, x_val, x_test))
        res_b, shifted = residual_targets(y_train, base_train)

        residual = build_predictor(replace(residual_cfg,
                                           seed=residual_cfg.seed + 1000 * index + 1))
        res_trace = residual.fit(x_train, shifted, x_val, (y_val - base_val) + res_b)

        model = ResLearnModel(base, residual, res_b, scaler)
        base_val_m, combined_val_m, _ = score(model, y_val, base_val, residual.predict(x_val))
        base_test_m, combined_test_m, test_series = score(model, y_test, base_test,
                                                          residual.predict(x_test))
    except ResLearnError as exc:
        return SegmentReport(segment_index=index, failed=f"{type(exc).__name__}: {exc}")
    return SegmentReport(
        segment_index=index,
        res_b=res_b,
        base_trace=base_trace,
        residual_trace=res_trace,
        base_val=base_val_m,
        base_test=base_test_m,
        combined_val=combined_val_m,
        combined_test=combined_test_m,
        test_series=test_series,
        model=model if keep_model else None,
    )

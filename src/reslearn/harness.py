"""Experiment orchestration: input to feature series, EDA, the model matrix,
and deterministic report files.

Outputs carry no timestamps, so a rerun with the same config and seed is
byte-identical. Training (train_models) runs each (model kind, segment)
pair as one task on one thread; with jobs > 1 the tasks go to forked worker
processes and the results are merged in configured order, which keeps the
bytes identical too.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import (
    CaptureTooShort,
    ConfigError,
    DegenerateSeries,
    NonFiniteLoss,
    ResLearnError,
    SchemaMismatch,
)
from .ingest import PacketTable, ParseResult, parse_csv, parse_pcap
from .placement import settle_child
from .report import (
    comparison_csv,
    plot_data_csv,
    render_csv,
    render_json,
    report_rows,
    smape_summary,
)
from .residual import ResLearnModel, SegmentReport, train_segment
from .seriesprep import (
    SegmentedSeries,
    impute_absent,
    rolling_mean,
    runs_test,
    segment,
)
from .synth import gen_series, gen_trace
from .viewframe import (
    FrameTable,
    SegmentFeatures,
    Thresholds,
    estimate_thresholds,
    features_csv,
    identify_frames,
    segment_features,
    threshold_report,
)


def load_packets(cfg: ExperimentConfig) -> ParseResult:
    """The packets of the configured input; only a pcap skips some or stops early."""
    if cfg.input_kind == "synth-trace":
        return ParseResult(gen_trace(cfg.trace_spec())[0])
    if cfg.input_kind == "pcap":
        with open(cfg.input_path, "rb") as stream:
            return parse_pcap(stream, cfg.endpoint_filter(), cfg.jobs)
    if cfg.input_kind == "csv":
        return ParseResult(parse_csv(Path(cfg.input_path).read_text()))
    raise ConfigError(f"input_kind {cfg.input_kind} has no packets; pcap, csv and synth-trace do")


def estimate_session_thresholds(packets: PacketTable, cfg: ExperimentConfig) -> Thresholds:
    """Thresholds from the first segment of the session."""
    first = packets[packets.ts < cfg.segment_duration]
    return estimate_thresholds(first, cfg.bins, cfg.default_dur_th)


def feature_series(cfg: ExperimentConfig):
    """Resolve the configured input into (values, thresholds, features, packets
    of the dropped partial segment); the latter three are None for series
    inputs."""
    if cfg.input_kind == "synth-series":
        return gen_series(cfg.series_spec())[0], None, None, None
    if cfg.input_kind == "features":
        values = read_feature_csv(Path(cfg.input_path).read_text(), cfg.feature)
        return values, None, None, None
    thresholds, _, feats, partial = packet_features(load_packets(cfg).records, cfg)
    return _feature_column(feats, cfg.feature), thresholds, feats, partial


def packet_features(
    packets: PacketTable, cfg: ExperimentConfig
) -> tuple[Thresholds, FrameTable, list[SegmentFeatures], int]:
    """Session thresholds, frames, the features of each full segment, and the
    number of packets in the partial last segment. Only the segments that end
    by the last packet count; the partial one after them is dropped, as
    `segment()` drops the trailing samples of a series."""
    last_ts = packets.ts[-1] if len(packets) else 0.0
    num_segments = int(last_ts // cfg.segment_duration)
    if num_segments == 0:
        raise CaptureTooShort(f"the capture ends at {last_ts:.6g} s, within its first "
                              f"{cfg.segment_duration:g} s segment")
    thresholds = estimate_session_thresholds(packets, cfg)
    frames = identify_frames(packets, thresholds, min_packets=cfg.min_packets)
    feats = segment_features(frames, cfg.segment_duration, num_segments)
    partial = int(np.count_nonzero(packets.ts >= num_segments * cfg.segment_duration))
    return thresholds, frames, feats, partial


def write_frame_files(out_dir: Path, thresholds: Thresholds, feats) -> None:
    """Write `thresholds.json` and `features.csv`."""
    (out_dir / "thresholds.json").write_text(threshold_report(thresholds))
    (out_dir / "features.csv").write_text(features_csv(feats))


def _feature_column(feats, feature: str) -> np.ndarray:
    if feature == "f_c":
        return np.array([sf.f_c for sf in feats], dtype=np.float64)
    if feature == "f_s":
        return np.array([sf.f_s for sf in feats], dtype=np.float64)
    return impute_absent([sf.f_iat for sf in feats])


def read_feature_csv(text: str, feature: str) -> np.ndarray:
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


def train_models(
    cfg: ExperimentConfig, segments: SegmentedSeries, keep_models: bool = False
) -> dict[str, tuple[list[ResLearnModel | None], list[SegmentReport]]]:
    """Train every (kind, segment) pair of the config; returns the models and
    reports of each kind, in segment order. Models are None unless
    keep_models is set, and for a failed segment.

    With jobs > 1 and more than one pair, the pairs run in min(jobs, pairs)
    forked worker processes, all joined before this returns; otherwise they
    run in this process. Each pair trains and predicts on one thread, with
    the same arithmetic in a worker as in-process, so the results are the
    same at any jobs.
    """
    split_spec = cfg.split_spec()
    base_cfgs, residual_cfg = cfg.model_configs()
    kinds = cfg.model_kinds()
    workers = min(cfg.jobs, len(kinds) * segments.num_segments)
    tasks = [
        (i, seg, base_cfgs[kind], residual_cfg, split_spec,
         cfg.paper_literal_combine, keep_models)
        for kind in kinds for i, seg in enumerate(segments.segments)
    ]
    if workers > 1:
        # imported here: they add about 14 ms to every CLI start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        # the kernel kills a worker when this process dies, so a killed run
        # leaves no idle worker behind
        with ProcessPoolExecutor(workers, mp_context=context, initializer=settle_child,
                                 initargs=(os.getpid(),)) as pool:
            results = list(pool.map(_train_task, *zip(*tasks)))
    else:
        results = [_train_task(*task) for task in tasks]

    trained = {}
    n = segments.num_segments
    for k, kind in enumerate(kinds):
        done = results[k * n:(k + 1) * n]
        trained[kind] = ([m for m, _ in done], [r for _, r in done])
    return trained


def _train_task(index, values, base_cfg, residual_cfg, split_spec,
                paper_literal_combine, keep_model):
    model, report = train_segment(index, values, base_cfg, residual_cfg, split_spec,
                                  paper_literal_combine)
    return (model if keep_model else None), report


def run_experiment(cfg: ExperimentConfig, out_dir) -> None:
    """Full pipeline, its report files written to `out_dir`. Raises
    ConfigError, data-stage ResLearnError/OSError, or NonFiniteLoss for the
    CLI to map to exit codes. Once the output directory exists, `run.log` is
    written however the run ends, with the error last if one ended it."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = [f"input_kind={cfg.input_kind}", f"feature={cfg.feature}", f"seed={cfg.seed}"]

    def write(name: str, text: str) -> None:
        (out_dir / name).write_text(text)

    try:
        values, thresholds, feats, partial = feature_series(cfg)
        if thresholds is not None:
            write_frame_files(out_dir, thresholds, feats)
            log.append(f"frames: len_th={thresholds.len_th:.6g} dur_th={thresholds.dur_th:.6g} "
                       f"segments={len(feats)} partial_segment_dropped_packets={partial}")
        write("eda.csv", eda_csv(values, cfg.eda_window))

        segments = segment(values, cfg.segment_size)
        log.append(f"segments: X={segments.num_segments} N={segments.segment_size} "
                   f"dropped={segments.dropped}")

        trained = train_models(cfg, segments)
        summaries = {}
        for kind, (_, reports) in trained.items():
            rows = report_rows(reports, kind)
            write(f"report_{kind}.csv", render_csv(rows))
            write(f"report_{kind}.json", render_json(rows))
            for r in reports:
                if r.test_series is not None:
                    actual, base_pred, combined_pred = r.test_series
                    i = r.segment_index
                    write(f"plot_{kind}_seg{i}.csv", plot_data_csv(actual, base_pred))
                    write(f"plot_{kind}_reslearn_seg{i}.csv",
                          plot_data_csv(actual, combined_pred))
            summary = summaries[kind] = smape_summary(reports)
            if summary is None:
                log.append(f"{kind}: segments_ok=0")
            else:
                log.append(f"{kind}: segments_ok={summary.segments_ok} val_smape_improvement="
                           f"{summary.improvement:.4g}%")

        if all(summary is None for summary in summaries.values()):
            raise NonFiniteLoss("every segment failed to train")
        write("comparison.csv", comparison_csv(summaries))
    except (ResLearnError, OSError) as exc:
        log.append(f"error: {type(exc).__name__}: {exc}")
        raise
    finally:
        (out_dir / "run.log").write_text("\n".join(log) + "\n")

"""Experiment orchestration: input to feature series, EDA, the model matrix,
and deterministic report files.

Outputs carry no timestamps, so a rerun with the same config and seed is
byte-identical. Training (train_models) runs each (model kind, segment)
pair as one task on one thread, through `placement.spread`, and the results
come back in configured order, which keeps the bytes identical on any number
of CPUs too.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import (
    CaptureTooShort,
    ConfigError,
    NonFiniteLoss,
    ResLearnError,
    SchemaMismatch,
    read_text,
)
from .ingest import PacketTable, ParseResult, parse_csv, parse_pcap
from .placement import spread
from .report import comparison_csv, plot_data_csv, render_csv, smape_summary
from .residual import SegmentReport, train_segment
from .seriesprep import (
    SegmentedSeries,
    eda_csv,
    impute_absent,
    read_feature_csv,
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
            return parse_pcap(stream, cfg.endpoint_filter())
    if cfg.input_kind == "csv":
        return ParseResult(parse_csv(read_text(cfg.input_path, SchemaMismatch)))
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
        values = read_feature_csv(read_text(cfg.input_path, SchemaMismatch), cfg.feature)
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


def train_models(
    cfg: ExperimentConfig, segments: SegmentedSeries, keep_models: bool = False
) -> dict[str, list[SegmentReport]]:
    """Train every (kind, segment) pair of the config; returns the reports of
    each kind, in segment order. A report holds its model only when
    keep_models is set.

    The pairs run through `placement.spread`: in forked workers, or in this
    process on one usable CPU. Each pair trains and predicts on one thread,
    with the same arithmetic in a worker as in-process, so the results are the
    same on any number of CPUs.
    """
    split_spec = cfg.split_spec()
    base_cfgs, residual_cfg = cfg.model_configs()
    kinds = cfg.model_kinds()
    tasks = [(i, seg, base_cfgs[kind], residual_cfg, split_spec, keep_models)
             for kind in kinds for i, seg in enumerate(segments.segments)]
    # every task draws its weights and batch order from it: load it once, before any fork
    import numpy.random  # noqa: F401

    reports = spread(lambda i: train_segment(*tasks[i]), len(tasks))
    n = segments.num_segments
    return {kind: reports[k * n:(k + 1) * n] for k, kind in enumerate(kinds)}


def run_experiment(cfg: ExperimentConfig, out_dir) -> None:
    """Full pipeline, its report files written to `out_dir`. Raises
    ConfigError, ResLearnError, OSError or MemoryError for the CLI to map to
    exit codes. Once the output directory exists, `run.log` is written however
    the run ends, with the error last if one of these ended it."""
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
        for kind, reports in trained.items():
            write(f"report_{kind}.csv", render_csv(reports, kind))
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
            log += [f"{kind} segment {r.segment_index}: {r.failed}"
                    for r in reports if r.failed is not None]

        if all(summary is None for summary in summaries.values()):
            raise NonFiniteLoss("every segment failed to train")
        write("comparison.csv", comparison_csv(summaries))
    except (ResLearnError, OSError, MemoryError) as exc:
        log.append(f"error: {type(exc).__name__}: {exc}")
        raise
    finally:
        (out_dir / "run.log").write_text("\n".join(log) + "\n")

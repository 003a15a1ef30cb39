"""Flat key=value experiment configuration with a strict schema.

Unknown keys are rejected so a config diff always means a behaviour diff.
CLI flags override file values; the file overrides defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, SplitTooSmall
from .ingest import EndpointFilter
from .models import PredictorConfig
from .placement import usable_cpus
from .seriesprep import SplitSpec, split
from .synth import SeriesSpec, TraceSpec

INPUT_KINDS = ("synth-series", "synth-trace", "pcap", "csv", "features")
FEATURES = ("f_c", "f_s", "f_iat")


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class ExperimentConfig:
    input_kind: str = "synth-series"
    input_path: str = ""
    server: str = ""
    port: int = -1                     # -1 means any port
    feature: str = "f_s"
    segment_duration: float = 1.0
    segment_size: int = 500
    lookback: int = 32
    train_ratio: float = 0.5
    val_ratio: float = 0.2
    models: str = "transformer"
    seed: int = 7
    # most worker processes `run` and `train` train in, each on one thread;
    # above 1, `ingest`, `frames` and `run` parse a large pcap in two processes
    jobs: int = field(default_factory=lambda: len(usable_cpus()))
    epochs: int = 300
    residual_epochs: int = 300
    hidden_width: int = 64
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    ffn_width: int = 128
    learning_rate: float = 1e-3
    batch_size: int = 32
    patience: int = 10
    min_delta: float = 1e-4
    paper_literal_combine: bool = False
    min_packets: int = 1
    bins: int = 50
    default_dur_th: float = 0.002
    eda_window: int = 20
    synth_length: int = 2000
    synth_level: float = 100.0
    synth_amplitude: float = 20.0
    synth_period: float = 50.0
    synth_slope: float = 0.0
    synth_noise_std: float = 1.0
    synth_spike_rate: float = 0.0
    synth_spike_height: float = 0.0
    synth_fps: float = 72.0
    synth_mean_frame_size: int = 12000
    synth_packets_per_frame: int = 10
    synth_intra_spacing: float = 0.0002
    synth_background_rate: float = 50.0
    synth_jitter_std: float = 0.0
    synth_duration: float = 10.0

    def model_kinds(self) -> list[str]:
        return [m.strip() for m in self.models.split(",") if m.strip()]

    def model_configs(self) -> tuple[dict[str, PredictorConfig], PredictorConfig]:
        """The base model settings of each configured kind, and the residual
        FCNN's."""
        def one(kind: str, epochs: int) -> PredictorConfig:
            return PredictorConfig(
                kind=kind,
                lookback=self.lookback,
                epochs=epochs,
                hidden_width=self.hidden_width,
                d_model=self.d_model,
                n_heads=self.n_heads,
                n_layers=self.n_layers,
                ffn_width=self.ffn_width,
                learning_rate=self.learning_rate,
                batch_size=self.batch_size,
                early_stop_patience=self.patience,
                early_stop_min_delta=self.min_delta,
                seed=self.seed,
            )

        return ({kind: one(kind, self.epochs) for kind in self.model_kinds()},
                one("fcnn", self.residual_epochs))

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.train_ratio, self.val_ratio)

    def series_spec(self) -> SeriesSpec:
        return self._synth_spec(SeriesSpec)

    def trace_spec(self) -> TraceSpec:
        return self._synth_spec(TraceSpec)

    def _synth_spec(self, spec_type):
        """The spec built from the synth_<field> settings and the seed; a bad
        setting is reported under its config key."""
        values = {f.name: getattr(self, "synth_" + f.name)
                  for f in fields(spec_type) if f.name != "seed"}
        try:
            return spec_type(**values, seed=self.seed)
        except ConfigError as exc:     # each message starts with the field name
            raise ConfigError(f"synth_{exc}") from None

    def endpoint_filter(self) -> EndpointFilter:
        """The pcap input's filter; port -1 means any port."""
        return EndpointFilter(self.server, None if self.port == -1 else self.port)

    def validate(self) -> None:
        """Every setting, model settings included, so a bad one fails before
        any input is read or any output made."""
        if self.input_kind not in INPUT_KINDS:
            raise ConfigError(f"input_kind must be one of {INPUT_KINDS}")
        if self.feature not in FEATURES:
            raise ConfigError(f"feature must be one of {FEATURES}")
        if self.input_kind in ("pcap", "csv", "features") and not self.input_path:
            raise ConfigError(f"input_kind {self.input_kind} needs input_path")
        if self.input_kind == "pcap":
            self.endpoint_filter()
        kinds = self.model_kinds()
        if not kinds:
            raise ConfigError("models must name at least one kind")
        repeated = next((kind for i, kind in enumerate(kinds) if kind in kinds[:i]), None)
        if repeated is not None:      # its results would be keyed, and kept, once
            raise ConfigError(f"models names {repeated!r} more than once")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.input_kind == "synth-series":
            self.series_spec()
        if self.input_kind == "synth-trace":
            self.trace_spec()
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")
        if not self.segment_duration > 0:
            raise ConfigError("segment_duration must be positive")
        if not self.default_dur_th > 0:
            raise ConfigError("default_dur_th must be positive")
        self.model_configs()
        if self.residual_epochs < 1:
            raise ConfigError("residual_epochs must be >= 1")
        if self.eda_window < 1:
            raise ConfigError("eda_window must be >= 1")
        # every segment has segment_size values, so one stands for them all
        try:
            split(np.empty(max(self.segment_size, 0)), self.split_spec(), self.lookback)
        except SplitTooSmall as exc:
            raise ConfigError(f"segment_size {self.segment_size} is too short for "
                              f"lookback {self.lookback}: {exc}") from None


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    try:
        if ftype in ("bool", bool):
            return _bool(raw)
        if ftype in ("int", int):
            return int(raw)
        if ftype in ("float", float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _convert(key, raw))
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown override {key!r}")
        setattr(cfg, key, value)
    return cfg

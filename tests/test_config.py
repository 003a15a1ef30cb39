import pytest
from hypothesis import given, settings, strategies as st

from reslearn.config import ExperimentConfig, apply_overrides, load_config, parse_config
from reslearn.errors import ConfigError

from fuzz import edits, mutate

# a valid config with keys of each type, most of them checked by validate()
FUZZ_CONFIG = """\
input_kind = pcap
input_path = trace.pcap
server = 10.0.0.1
port = 443
feature = f_iat
segment_duration = 1.5
segment_size = 60
lookback = 4
train_ratio = 0.5
val_ratio = 0.2
models = transformer, lstm  # both
epochs = 5
residual_epochs = 5
learning_rate = 0.001
patience = 3
min_delta = 0.0001
bins = 50
default_dur_th = 0.002
eda_window = 20
synth_length = 130
synth_period = 50.0
synth_jitter_std = 0.0
"""


class TestParse:
    def test_defaults_when_empty(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_values_and_comments(self):
        cfg = parse_config(
            "# experiment\n"
            "models = lstm, gru\n"
            "seed = 3\n"
            "learning_rate = 0.01  # fast\n"
        )
        assert cfg.model_kinds() == ["lstm", "gru"]
        assert cfg.seed == 3
        assert cfg.learning_rate == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rte = 0.1\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("seed = three\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")


class TestValidate:
    # 20000 random edits of this config, run apart from this test, found one
    # other outcome: a server address with a digit outside ASCII, such as
    # '10.0.0.1\u00b2', raised ValueError; with that mended, none
    @settings(max_examples=300, deadline=None)
    @given(edits(), st.none() | st.integers(0, len(FUZZ_CONFIG)))
    def test_mutated_config_returns_or_raises_config_error(self, changes, cut):
        text = mutate(FUZZ_CONFIG, changes)[:cut]
        try:
            cfg = parse_config(text)
            cfg.validate()
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    def test_bad_input_kind(self):
        cfg = parse_config("input_kind = magic\n")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_pcap_needs_server(self):
        cfg = parse_config("input_kind = pcap\ninput_path = trace.pcap\n")
        with pytest.raises(ConfigError, match="server"):
            cfg.validate()

    def test_file_inputs_need_path(self):
        cfg = parse_config("input_kind = features\n")
        with pytest.raises(ConfigError, match="input_path"):
            cfg.validate()

    def test_valid_default_passes(self):
        parse_config("").validate()


class TestOverridesAndFiles:
    def test_overrides_win(self):
        cfg = parse_config("seed = 1\n")
        apply_overrides(cfg, {"seed": 9, "port": 4, "epochs": None})
        assert cfg.seed == 9
        assert cfg.port == 4
        assert cfg.epochs == ExperimentConfig().epochs

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(ExperimentConfig(), {"nope": 1})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("segment_size = 120\nmodels = fcnn\n")
        cfg = load_config(path)
        assert cfg.segment_size == 120
        assert cfg.model_kinds() == ["fcnn"]

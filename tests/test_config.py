import pytest

from reslearn.config import ExperimentConfig, apply_overrides, load_config, parse_config
from reslearn.errors import ConfigError


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

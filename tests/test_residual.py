import numpy as np
import pytest

from reslearn.errors import LengthMismatch
from reslearn.models import KINDS, Predictor, PredictorConfig, build_predictor
from reslearn.residual import (
    ResLearnModel,
    combine_predictions,
    load_reslearn,
    residual_targets,
    save_reslearn,
    train_segment,
)
from reslearn.seriesprep import Scaler, SplitSpec, make_windows, split


class TestResidualTargets:
    def test_hand_example(self):
        # residuals -2, 1 and 3
        res_b, shifted = residual_targets([3.0, 4.0, 8.0], [5.0, 3.0, 5.0])
        assert res_b == 2.0
        np.testing.assert_array_equal(shifted, [0.0, 3.0, 5.0])

    def test_all_positive_residuals(self):
        # bias is |min|, not zero, even when every residual is positive
        # residuals 0.5 and 1
        res_b, shifted = residual_targets([1.5, 2.0], [1.0, 1.0])
        assert res_b == 0.5
        np.testing.assert_array_equal(shifted, [1.0, 1.5])

    def test_perfect_base(self):
        res_b, shifted = residual_targets([1.0, 2.0], [1.0, 2.0])
        assert res_b == 0.0
        np.testing.assert_array_equal(shifted, [0.0, 0.0])

    def test_shift_makes_targets_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=30)
            p = rng.normal(size=30)
            _, shifted = residual_targets(y, p)
            assert shifted.min() >= 0.0

    def test_shift_is_invertible(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=50)
        p = rng.normal(size=50)
        res_b, shifted = residual_targets(y, p)
        np.testing.assert_allclose(shifted - res_b, y - p, atol=1e-12)
        np.testing.assert_allclose(p + (shifted - res_b), y, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            residual_targets([1.0, 2.0], [1.0])


class _StubPredictor:
    """Fixed-output stand-in with the predict() surface used by combine."""

    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def predict(self, inputs):
        return self.outputs[: len(inputs)]


IDENTITY = Scaler(0.0, 1.0)


def forecast(model, inputs):
    """The combined forecast of `inputs`, formed as the CLI forms it."""
    return combine_predictions(model, model.base.predict(inputs), model.residual.predict(inputs))


def train_all(segments, base_cfg, residual_cfg, split_spec):
    """train_segment over every segment, in order: (models, reports)."""
    reports = [train_segment(i, seg, base_cfg, residual_cfg, split_spec, True)
               for i, seg in enumerate(segments)]
    return [r.model for r in reports], reports


class TestPredictCombined:
    @pytest.mark.parametrize("kind", KINDS)
    def test_perfect_residual_recovers_targets(self, kind):
        # real base model of every kind; residual stub returns exactly the
        # bias-shifted residuals, so base + stub - res_b must equal targets
        rng = np.random.default_rng(7)
        series = rng.uniform(0, 1, 60)
        x, y = make_windows(series, 8)
        base = build_predictor(PredictorConfig(kind=kind, lookback=8, hidden_width=8,
                                               d_model=8, ffn_width=12, seed=3))
        res_b, shifted = residual_targets(y, base.predict(x))
        model = ResLearnModel(base, _StubPredictor(shifted), res_b, IDENTITY)
        np.testing.assert_allclose(forecast(model, x), y, atol=1e-9)

    def test_zero_residual_stub_reproduces_base(self):
        base = _StubPredictor(np.array([1.0, 2.0, 3.0]))
        model = ResLearnModel(base, _StubPredictor(np.full(3, 0.4)), 0.4, IDENTITY)
        np.testing.assert_allclose(
            forecast(model, np.zeros((3, 8))), [1.0, 2.0, 3.0], atol=1e-12
        )

    def test_inverse_scaling_applied(self):
        base = _StubPredictor(np.array([0.5]))
        model = ResLearnModel(base, _StubPredictor(np.array([0.0])), 0.0,
                              Scaler(100.0, 300.0))
        np.testing.assert_allclose(forecast(model, np.zeros((1, 8))), [200.0])


def tiny_configs(**base_overrides):
    common = dict(kind="fcnn", lookback=8, epochs=30, hidden_width=16,
                  learning_rate=3e-3, seed=2)
    return (PredictorConfig(**{**common, **base_overrides}),
            PredictorConfig(**common))


class TestTrainReslearn:
    def test_two_segment_pipeline(self):
        rng = np.random.default_rng(9)
        t = np.arange(200)
        series = 10 + np.sin(2 * np.pi * t / 20) + rng.normal(0, 0.05, 200)
        base_cfg, res_cfg = tiny_configs()
        models, reports = train_all([series[:100], series[100:]], base_cfg, res_cfg,
                                    SplitSpec(0.5, 0.2))
        assert len(models) == len(reports) == 2
        for m, r in zip(models, reports):
            assert m is not None
            assert r.failed is None
            assert r.res_b >= 0
            assert r.base_trace.epochs_run > 0 and r.residual_trace.epochs_run > 0
            assert r.base_test.rmse > 0
            assert np.isfinite(r.combined_test.smape)

    def test_failing_segment_flagged_and_loop_continues(self):
        good = np.sin(np.arange(100) / 5.0) + 5.0
        short = np.arange(20, dtype=float)   # cannot satisfy the window split
        base_cfg, res_cfg = tiny_configs()
        models, reports = train_all([short, good], base_cfg, res_cfg, SplitSpec(0.5, 0.2))
        assert models[0] is None
        assert "SplitTooSmall" in reports[0].failed
        assert models[1] is not None
        assert reports[1].failed is None

    def test_segment_models_get_distinct_seeds(self):
        series = np.sin(np.arange(100) / 5.0) + 5.0
        base_cfg, res_cfg = tiny_configs(epochs=0)
        models, _ = train_all([series, series], base_cfg, res_cfg, SplitSpec(0.5, 0.2))
        a = models[0].base.flat
        b = models[1].base.flat
        assert not np.array_equal(a, b)

    def test_checkpoint_round_trip(self, tmp_path):
        series = np.sin(np.arange(100) / 5.0) + 5.0
        base_cfg, res_cfg = tiny_configs(epochs=5)
        models, _ = train_all([series], base_cfg, res_cfg, SplitSpec(0.5, 0.2))
        path = tmp_path / "bundle.npz"
        save_reslearn(models[0], path)
        loaded = load_reslearn(path)
        assert loaded.res_b == models[0].res_b
        assert loaded.scaler == models[0].scaler
        x, _ = make_windows(np.sin(np.arange(40) / 5.0), 8)
        np.testing.assert_array_equal(forecast(loaded, x), forecast(models[0], x))

    def test_one_predict_per_split_and_plots_from_it(self, monkeypatch):
        series = np.sin(np.arange(100) / 5.0) + 5.0
        base_cfg, res_cfg = tiny_configs(kind="gru", epochs=3)
        spec = SplitSpec(0.5, 0.2)
        calls = []
        real_predict = Predictor.predict

        def spy(model, inputs, **kw):
            calls.append(model)
            return real_predict(model, inputs, **kw)

        monkeypatch.setattr(Predictor, "predict", spy)
        segments = [series, series + 1.0]
        models, reports = train_all(segments, base_cfg, res_cfg, spec)
        monkeypatch.setattr(Predictor, "predict", real_predict)
        assert len(calls) == 5 * len(segments)
        for seg, m, r in zip(segments, models, reports):
            assert sum(c is m.base for c in calls) == 3      # train, val, test
            assert sum(c is m.residual for c in calls) == 2  # val, test
            _, _, test = split(seg, spec, lookback=8)
            x_test, y_test = make_windows(m.scaler.transform(test), 8)
            actual, base_pred, combined = r.test_series
            np.testing.assert_array_equal(actual, m.scaler.inverse(y_test))
            np.testing.assert_array_equal(base_pred, m.scaler.inverse(m.base.predict(x_test)))
            np.testing.assert_array_equal(combined, forecast(m, x_test))

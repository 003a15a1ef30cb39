"""End-to-end acceptance checks. Each test prints one PASS/FAIL line; run with
`pytest -s tests/test_acceptance.py` to see them as they complete."""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reslearn.cli import main as cli_main
from reslearn.metrics import evaluate, smape_improvement, stage_metrics
from reslearn.models import KINDS, PredictorConfig, build_predictor
from reslearn.residual import ResLearnModel, residual_targets
from reslearn.seriesprep import (
    Scaler,
    SplitSpec,
    make_windows,
    rolling_mean,
    runs_test,
    segment,
    split,
)
from reslearn.synth import SeriesSpec, TraceSpec, gen_series, gen_trace
from reslearn.viewframe import estimate_thresholds, identify_frames

from cpus import on_cpus
from test_models import grad_fixture, max_relative_grad_error, small_config
from test_residual import forecast, train_all


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL", file=sys.stderr)
                raise
            print(f"{label}: PASS", file=sys.stderr)
            return result

        return wrapper

    return deco


class TestCriterion1Metrics:
    @criterion("criterion 1 (metric fixtures and SMAPE properties)")
    def test_metrics(self):
        from test_metrics import TestHandComputed

        cases = TestHandComputed.CASES
        assert len(cases) >= 10
        for a, p, r, m, s in cases:
            res = evaluate(a, p)
            assert abs(res.rmse - r) < 1e-9
            assert abs(res.mape - m) < 1e-9
            assert abs(res.smape - s) < 1e-9
        # symmetry and the [0, 2] bound over a large random input
        rng = np.random.default_rng(0)
        a = rng.normal(0, 50, 10_000)
        p = rng.normal(0, 50, 10_000)
        s = evaluate(a, p).smape
        assert s == pytest.approx(evaluate(p, a).smape, abs=1e-12)
        assert 0.0 <= s <= 2.0

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.tuples(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
            min_size=1, max_size=100))
        def check(pairs):
            from reslearn.errors import AllTermsSkipped

            av = np.array([x for x, _ in pairs])
            pv = np.array([y for _, y in pairs])
            try:
                s, swapped = evaluate(av, pv).smape, evaluate(pv, av).smape
            except AllTermsSkipped:
                return
            assert s == pytest.approx(swapped, abs=1e-12)
            assert -1e-12 <= s <= 2 + 1e-12

        check()


class TestCriterion2PublishedImprovements:
    @criterion("criterion 2 (published SMAPE improvement figures)")
    def test_improvement_table(self):
        # (base display SMAPE, combined display SMAPE, published improvement %, tol)
        table = [
            (404.05, 0.36, 99.91, 0.02),
            (285.29, 1.01, 99.65, 0.02),
            (371.82, 0.15, 99.96, 0.02),
            (562.87, 0.45, 99.92, 0.02),
            (404.41, 0.69, 99.83, 0.02),
        ]
        for base, comb, published, tol in table:
            assert abs(smape_improvement(base, comb) - published) <= tol
        # smoothing experiment: 0.78 -> 0.24 reported as 68.87% improvement
        assert abs(smape_improvement(0.78, 0.24) - 68.87) <= 1.0


class TestCriterion3Gradients:
    @criterion("criterion 3 (analytic gradients vs finite differences)")
    def test_all_kinds(self):
        X, y = grad_fixture()
        for kind in KINDS:
            model = build_predictor(small_config(kind))
            err = max_relative_grad_error(model, X, y, eps=1e-4)
            assert err < 1e-3, f"{kind}: {err}"


class _StubPredictor:
    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def predict(self, inputs):
        return self.outputs[: len(inputs)]


class TestCriterion4CombineIdentity:
    @criterion("criterion 4 (perfect residual learner recovers the targets)")
    def test_identity(self):
        rng = np.random.default_rng(7)
        series = rng.uniform(0, 1, 60)
        x, y = make_windows(series, 8)
        for kind in KINDS:
            base = build_predictor(small_config(kind, seed=3))
            res_b, shifted = residual_targets(y, base.predict(x))
            model = ResLearnModel(base, _StubPredictor(shifted), res_b, Scaler(0.0, 1.0))
            np.testing.assert_allclose(forecast(model, x), y, atol=1e-9)


class TestCriterion5FrameRecovery:
    @criterion("criterion 5 (frame recovery from planted traces)")
    def test_recovery(self):
        # clean trace: exact frame count and byte totals
        clean = TraceSpec(duration=10.0, jitter_std=0.0, background_rate=50.0, seed=4)
        packets, planted = gen_trace(clean)
        th = estimate_thresholds(packets[packets.ts < 1.0], 50, 0.002)
        assert len(th.peaks) >= 2          # estimated, not the fallback
        frames = identify_frames(packets, th)
        assert len(frames) == len(planted)
        assert frames.size.sum() == planted.size.sum()

        # jitter at 20% of the frame spacing: frame count within 1%
        spacing = 1.0 / clean.fps
        noisy = TraceSpec(duration=10.0, jitter_std=0.2 * spacing,
                          background_rate=50.0, seed=4)
        packets, planted = gen_trace(noisy)
        th = estimate_thresholds(packets[packets.ts < 1.0], 50, 0.002)
        assert len(th.peaks) >= 2          # estimated, not the fallback
        frames = identify_frames(packets, th)
        assert abs(len(frames) - len(planted)) <= 0.01 * len(planted)


class TestCriterion6ResidualGain:
    @criterion("criterion 6 (residual stage lifts a spiky-series transformer)")
    def test_improvement_and_peaks(self):
        series, comps = gen_series(SeriesSpec(
            length=2000, level=100.0, amplitude=20.0, period=50.0, slope=0.0,
            noise_std=1.0, spike_rate=0.02, spike_height=60.0, seed=11,
        ))
        base_cfg = PredictorConfig(kind="transformer", lookback=32, epochs=60,
                                   d_model=32, n_heads=2, n_layers=2, ffn_width=64,
                                   learning_rate=1e-3, early_stop_patience=10, seed=5)
        residual_cfg = PredictorConfig(kind="fcnn", lookback=32, epochs=300,
                                       hidden_width=64, learning_rate=1e-3,
                                       early_stop_patience=20, seed=5)
        spec = SplitSpec(0.5, 0.2)
        segments = segment(series, 500)
        models, reports = train_all(segments.segments, base_cfg, residual_cfg, spec)
        ok = [r for r in reports if r.failed is None]
        assert len(ok) == 4

        val = [stage_metrics(*r.val) for r in ok]
        mean_base = np.mean([base.smape for base, _ in val])
        mean_comb = np.mean([combined.smape for _, combined in val])
        improvement = smape_improvement(float(mean_base), float(mean_comb))
        assert improvement >= 30.0

        # the residual stage must specifically improve the spiky top decile
        base_err, comb_err = [], []
        for i, model in enumerate(models):
            _, _, test = split(segments.segments[i], spec, lookback=32)
            x, y = make_windows(model.scaler.transform(test), 32)
            actual = model.scaler.inverse(y)
            base_pred = model.scaler.inverse(model.base.predict(x))
            comb_pred = forecast(model, x)
            hi = actual >= np.quantile(actual, 0.9)
            base_err.append(np.abs(base_pred[hi] - actual[hi]))
            comb_err.append(np.abs(comb_pred[hi] - actual[hi]))
        base_mae = float(np.mean(np.concatenate(base_err)))
        comb_mae = float(np.mean(np.concatenate(comb_err)))
        assert comb_mae < base_mae


class TestCriterion7RunsTest:
    @criterion("criterion 7 (runs test separates trend from noise)")
    def test_separation(self):
        values, _ = gen_series(SeriesSpec(length=500, noise_std=0.5, seed=6))
        assert runs_test(rolling_mean(values, 20)).p_value < 0.01

        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noise = rng.normal(0, 1, 300)
            if runs_test(noise).p_value > 0.05:
                passes += 1
        assert passes >= 90


RUN_CFG = """
input_kind = synth-series
synth_length = 130
synth_noise_std = 0.5
segment_size = 60
lookback = 4
models = fcnn, gru
epochs = 5
residual_epochs = 5
hidden_width = 8
d_model = 8
ffn_width = 8
seed = 7
"""


class TestCriterion8Determinism:
    @criterion("criterion 8 (byte-identical reruns, serial and parallel)")
    def test_reruns(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CFG)

        def run(out, cpus):
            with on_cpus(cpus):
                rc = cli_main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)])
            assert rc == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = run(tmp_path / "a", 1)
        second = run(tmp_path / "b", 1)
        parallel = run(tmp_path / "c", 4)
        assert first == second
        assert first == parallel

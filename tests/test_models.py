import json
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from reslearn.errors import CheckpointError, ConfigError, NonFiniteLoss, ShapeMismatch
from reslearn.models import KINDS, PredictorConfig, build_predictor
from reslearn.models.transformer import _softmax, positional_encoding
from reslearn.residual import ResLearnModel, load_reslearn, save_reslearn
from reslearn.seriesprep import Scaler

from oracles import dict_adam_fit, transformer_backward, transformer_forward


def small_config(kind, **overrides):
    base = dict(
        kind=kind,
        lookback=8,
        hidden_width=8,
        d_model=8,
        n_heads=2,
        n_layers=2,
        ffn_width=12,
        seed=1,
    )
    base.update(overrides)
    return PredictorConfig(**base)


def grad_fixture():
    # seed chosen so no ReLU pre-activation sits within the FD step of zero,
    # which would otherwise corrupt the finite-difference reference
    rng = np.random.default_rng(1)
    X = rng.uniform(0.1, 0.9, (4, 8))
    y = rng.uniform(0.1, 0.9, 4)
    return X, y


def max_relative_grad_error(model, X, y, eps=1e-4):
    _, analytic = model.loss_and_grad(X, y)
    numeric = np.empty_like(model.flat)
    for i in range(model.flat.size):
        saved = model.flat[i]
        model.flat[i] += eps
        up, _ = model.loss_and_grad(X, y)
        model.flat[i] -= 2 * eps
        down, _ = model.loss_and_grad(X, y)
        model.flat[i] = saved
        numeric[i] = (up - down) / (2 * eps)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_matches_finite_differences(self, kind):
        model = build_predictor(small_config(kind))
        X, y = grad_fixture()
        assert max_relative_grad_error(model, X, y) < 1e-3


class TestFloat32Step:
    @pytest.mark.parametrize("kind", KINDS)
    def test_kernels_keep_float32(self, kind):
        model = build_predictor(small_config(kind))
        X, y = grad_fixture()
        params = {k: v.astype(np.float32) for k, v in model.params.items()}
        pred, cache = model._forward(params, X.astype(np.float32))
        assert pred.dtype == np.float32
        grads = model._backward(params, cache, pred - y.astype(np.float32))
        assert {k: g.dtype for k, g in grads.items()} == {k: np.float32 for k in params}

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_steps_in_float32_over_float64_weights(self, kind, monkeypatch):
        model = build_predictor(small_config(kind, epochs=2, batch_size=3))
        X, y = grad_fixture()
        steps = []

        def spy(inputs, targets, params=None, step=model.loss_and_grad):
            loss, grad = step(inputs, targets, params=params)
            steps.append((inputs.dtype, targets.dtype, grad.dtype,
                          {v.dtype for v in params.values()}))
            return loss, grad

        monkeypatch.setattr(model, "loss_and_grad", spy)
        model.fit(X, y, X, y)
        f32 = np.dtype(np.float32)
        assert steps == [(f32, f32, f32, {f32})] * 4   # 2 epochs of 2 batches
        assert model.flat.dtype == np.float64
        assert_views_of_flat(model)
        assert model.predict(X).dtype == np.float64
        assert model.predict(X.astype(np.float32)).dtype == np.float64

    @pytest.mark.parametrize("kind", KINDS)
    def test_validation_and_predict_forward_in_float32(self, kind, monkeypatch):
        model = build_predictor(small_config(kind, epochs=2, batch_size=3))
        X, y = grad_fixture()
        calls = []

        def spy(params, inputs, forward=model._forward):
            calls.append((inputs.dtype, {v.dtype for v in params.values()}))
            return forward(params, inputs)

        monkeypatch.setattr(model, "_forward", spy)
        model.fit(X, y, X, y)
        f32 = np.dtype(np.float32)
        # 2 epochs of 2 training steps and 1 validation forward
        assert calls == [(f32, {f32})] * 6
        calls.clear()
        assert model.predict(X).dtype == np.float64
        assert calls == [(f32, {f32})]


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            PredictorConfig(kind="rnn")

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            PredictorConfig(kind="transformer", d_model=10, n_heads=3)

    def test_negative_lr(self):
        with pytest.raises(ConfigError):
            PredictorConfig(kind="fcnn", learning_rate=-1.0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_params_and_fit(self, kind):
        X, y = grad_fixture()
        a = build_predictor(small_config(kind, epochs=3))
        b = build_predictor(small_config(kind, epochs=3))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        ta = a.fit(X, y)
        tb = b.fit(X, y)
        assert ta.train_loss == tb.train_loss
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_different_seed_different_init(self):
        a = build_predictor(small_config("fcnn", seed=1))
        b = build_predictor(small_config("fcnn", seed=2))
        assert not np.array_equal(a.flat, b.flat)


def assert_views_of_flat(model):
    """Every named parameter is a view of the model's one vector, and the
    views tile it in order."""
    for k, v in model.params.items():
        assert np.shares_memory(v, model.flat), k
    np.testing.assert_array_equal(
        np.concatenate([v.ravel() for v in model.params.values()]), model.flat)
    assert sum(v.size for v in model.params.values()) == model.flat.size


class TestFlatLayout:
    @pytest.mark.parametrize("kind", KINDS)
    def test_init_lays_out_the_same_draws(self, kind):
        model = build_predictor(small_config(kind))
        assert_views_of_flat(model)
        drawn = model.init_params(np.random.default_rng(model.config.seed))
        assert list(drawn) == list(model.params)
        for k, v in drawn.items():
            np.testing.assert_array_equal(model.params[k], v)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_matches_per_key_adam(self, kind):
        rng = np.random.default_rng(6)
        X, Xv = rng.uniform(0.1, 0.9, (40, 8)), rng.uniform(0.1, 0.9, (12, 8))
        y, yv = X.mean(axis=1), Xv.mean(axis=1)
        model = build_predictor(small_config(kind, epochs=3, batch_size=16))
        expected = dict_adam_fit(model, X, y, Xv, yv)
        model.fit(X, y, Xv, yv)
        np.testing.assert_array_equal(
            model.flat, np.concatenate([expected[k].ravel() for k in model.params]))
        assert_views_of_flat(model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_round_trip_keeps_views(self, kind):
        model = build_predictor(small_config(kind, epochs=2))
        X, y = grad_fixture()
        model.fit(X, y)
        copy = pickle.loads(pickle.dumps(model))
        assert copy.config == model.config
        np.testing.assert_array_equal(copy.flat, model.flat)
        assert_views_of_flat(copy)
        np.testing.assert_array_equal(copy.predict(X), model.predict(X))


class TestTraining:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fits_constant_series(self, kind):
        cfg = small_config(kind, lookback=8, epochs=200, learning_rate=1e-2,
                           hidden_width=16, d_model=16, ffn_width=16)
        model = build_predictor(cfg)
        X = np.full((40, 8), 0.5)
        y = np.full(40, 0.5)
        model.fit(X, y)
        pred = model.predict(X)
        assert np.mean((pred - y) ** 2) < 1e-6

    def test_fcnn_fits_window_mean(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (200, 8))
        y = X.mean(axis=1)
        cfg = small_config("fcnn", epochs=400, learning_rate=3e-3, hidden_width=32)
        model = build_predictor(cfg)
        model.fit(X, y)
        assert np.mean((model.predict(X) - y) ** 2) < 1e-5

    def test_zero_epochs_no_update(self):
        model = build_predictor(small_config("fcnn", epochs=0))
        before = model.flat.copy()
        X, y = grad_fixture()
        trace = model.fit(X, y)
        assert trace.epochs_run == 0
        np.testing.assert_array_equal(model.flat, before)

    def test_early_stopping_with_unreachable_delta(self):
        # min_delta so large no epoch ever counts as an improvement after the
        # first, so training stops after exactly patience more epochs and
        # writes the first epoch's parameters back
        cfg = small_config("fcnn", epochs=100, early_stop_patience=3,
                           early_stop_min_delta=1e9)
        model = build_predictor(cfg)
        X, y = grad_fixture()
        trace = model.fit(X, y, X, y)
        assert (trace.epochs_run, trace.best_epoch) == (4, 0)
        assert_views_of_flat(model)
        assert float(np.mean((model.predict(X) - y) ** 2)) == trace.val_loss[0]

    def test_best_val_params_restored(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (60, 8))
        y = X.mean(axis=1)
        Xv = rng.uniform(0, 1, (20, 8))
        yv = Xv.mean(axis=1)
        cfg = small_config("fcnn", epochs=40, learning_rate=1e-2)
        model = build_predictor(cfg)
        trace = model.fit(X, y, Xv, yv)
        final_val = float(np.mean((model.predict(Xv) - yv) ** 2))
        assert final_val == pytest.approx(trace.val_loss[trace.best_epoch], rel=1e-9)
        # improvements below min_delta are not recorded, so "best" may sit
        # within min_delta of the raw minimum but never worse than that
        assert trace.val_loss[trace.best_epoch] <= min(trace.val_loss) + cfg.early_stop_min_delta

    def test_divergence_raises(self):
        # learning rate large enough that squared errors overflow to inf
        cfg = small_config("fcnn", epochs=50, learning_rate=1e100)
        model = build_predictor(cfg)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (32, 8)) * 1e6
        y = rng.uniform(0, 1, 32) * 1e6
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                model.fit(X, y)

    def test_shape_mismatch(self):
        model = build_predictor(small_config("lstm"))
        with pytest.raises(ShapeMismatch):
            model.predict(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            model.fit(np.zeros((4, 8)), np.zeros(3))


class TestTransformerKernels:
    """The in-place transformer kernels against the out-of-place ones of
    tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("n", (1, 2, 32, 100))
    def test_match_out_of_place_oracle(self, n, dtype):
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        x = np.random.default_rng(n).uniform(0, 1, (n, 32)).astype(dtype)
        y = x.mean(axis=1)
        params = {k: v.astype(dtype) for k, v in model.params.items()}
        want, cache = transformer_forward(model, params, x)
        assert np.array_equal(model._forward(params, x)[0], want)
        diff = want - y
        grads = transformer_backward(model, params, cache, 2.0 * diff / diff.size)
        loss, grad = model.loss_and_grad(x, y, params=params)
        assert loss == float(np.mean(diff ** 2))
        assert grad.dtype == dtype
        assert np.array_equal(grad, np.concatenate([grads[k].ravel() for k in params]))


class TestBlockInference:
    # sizes around the block edges, with one-window remainders
    SIZES = (0, 1, 2, 31, 32, 33, 34, 35, 39, 63, 64, 65, 100, 255, 256, 257, 513, 1968)

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_equals_whole_batch_forward(self, kind):
        model = build_predictor(PredictorConfig(kind=kind, seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (max(self.SIZES), 32))
        params32 = {k: v.astype(np.float32) for k, v in model.params.items()}
        x32 = x.astype(np.float32)
        for n in self.SIZES:
            whole, _ = model._forward(params32, x32[:n])
            # 2 and 3 threads: even and uneven runs, and fewer blocks than threads
            for threads in (1, 2, 3):
                got = model.predict(x[:n], threads=threads)
                assert np.array_equal(got, whole.astype(np.float64)), (n, threads)

    @pytest.mark.parametrize("failing_block", [0, 3], ids=["calling_thread", "worker_thread"])
    def test_block_error_reaches_caller(self, failing_block, monkeypatch):
        model = build_predictor(PredictorConfig(kind="fcnn", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (4 * 32, 32))
        x[32 * failing_block, 0] = -1.0          # marks the block that fails
        real_forward = model._forward

        def forward(params, inputs):
            if inputs[0, 0] == -1.0:
                raise ValueError(f"block {failing_block}")
            return real_forward(params, inputs)

        monkeypatch.setattr(model, "_forward", forward)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"block {failing_block}"):
            model.predict(x, threads=2)
        assert threading.active_count() == before

    # The largest deviation of `predict` from a float64 forward, relative to
    # the largest absolute prediction, measured on these windows: transformer
    # 2.9e-7, lstm 2.0e-7, gru 7.5e-7, stacked_lstm 2.8e-6 (its predictions
    # are all below 1e-3), fcnn 3.7e-7. The bound is the relative tolerance
    # the benchmark allows `evaluate`'s metrics against a float64 forward.
    FLOAT64_RTOL = 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_close_to_float64_forward(self, kind):
        model = build_predictor(PredictorConfig(kind=kind, seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (max(self.SIZES), 32))
        want, _ = model._forward(model.params, x)
        gap = np.max(np.abs(model.predict(x) - want)) / np.max(np.abs(want))
        assert gap < self.FLOAT64_RTOL

    def test_transformer_predict_memory_bounded_by_block(self):
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (2000, 32))
        tracemalloc.start()
        try:
            model.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_threaded_predict_memory_bounded_by_blocks(self):
        # two blocks are live at once
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (2000, 32))
        tracemalloc.start()
        try:
            model.predict(x, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestArchitectures:
    def test_stacked_lstm_has_more_params_than_lstm(self):
        lstm = build_predictor(small_config("lstm"))
        stacked = build_predictor(small_config("stacked_lstm"))
        assert stacked.flat.size > lstm.flat.size

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 3, (2, 4, 6, 6))
        probs = _softmax(scores)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert probs.min() >= 0

    def test_positional_encoding_shape_and_bounds(self):
        pe = positional_encoding(16, 8)
        assert pe.shape == (16, 8)
        assert np.abs(pe).max() <= 1.0
        # position 0 is sin(0)/cos(0) pairs
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-12)

    def test_gate_activations_bounded(self):
        model = build_predictor(small_config("gru"))
        X, _ = grad_fixture()
        pred = model.predict(X * 100)
        assert np.all(np.isfinite(pred))


def two_stage(base_kind="fcnn"):
    return ResLearnModel(build_predictor(small_config(base_kind, epochs=2)),
                         build_predictor(small_config("fcnn", seed=2)), 0.25, Scaler(1.0, 3.0))


def checkpoint(tmp_path, edit=None):
    """A saved two-stage checkpoint, its arrays first changed by `edit`."""
    path = tmp_path / "ckpt.npz"
    save_reslearn(two_stage(), path)
    if edit is not None:
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(path, **arrays)
    return path


def meta_edit(change):
    """An `edit` that applies `change` to the checkpoint's metadata dict."""
    def edit(arrays):
        meta = json.loads(str(arrays["__meta__"]))
        change(meta)
        arrays["__meta__"] = json.dumps(meta)

    return edit


MALFORMED = {
    "meta_missing": lambda arrays: arrays.pop("__meta__"),
    "meta_not_json": lambda arrays: arrays.update(__meta__="{not json"),
    "meta_not_object": lambda arrays: arrays.update(__meta__="[1]"),
    "no_base_config": meta_edit(lambda meta: meta.pop("base_config")),
    "unknown_config_key": meta_edit(lambda meta: meta["base_config"].update(colour=1)),
    "bad_config_value": meta_edit(lambda meta: meta["residual_config"].update(kind="cnn")),
    "scaler_not_object": meta_edit(lambda meta: meta.update(scaler=[1.0, 3.0])),
    "scaler_bad_bound": meta_edit(lambda meta: meta["scaler"].update(lo="low")),
    "scaler_missing_bound": meta_edit(lambda meta: meta["scaler"].pop("hi")),
    "res_b_missing": meta_edit(lambda meta: meta.pop("res_b")),
    "parameter_missing": lambda arrays: arrays.pop("residual__b3"),
    "parameter_not_float": lambda arrays: arrays.update(base__b1=np.array(["x"] * 8)),
}


class TestCheckpoints:
    """save_reslearn / load_reslearn, the one checkpoint codec."""

    def test_round_trip(self, tmp_path):
        X, y = grad_fixture()
        model = two_stage("transformer")
        model.base.fit(X, y)
        path = tmp_path / "model.npz"
        save_reslearn(model, path)
        loaded = load_reslearn(path)
        for stage in ("base", "residual"):
            np.testing.assert_array_equal(getattr(loaded, stage).flat,
                                          getattr(model, stage).flat)
            assert_views_of_flat(getattr(loaded, stage))
            assert getattr(loaded, stage).config == getattr(model, stage).config
        np.testing.assert_array_equal(loaded.base.predict(X), model.base.predict(X))
        assert (loaded.res_b, loaded.scaler) == (model.res_b, model.scaler)

    def test_version_rejected(self, tmp_path):
        path = checkpoint(tmp_path, meta_edit(lambda meta: meta.update(version=99)))
        with pytest.raises(CheckpointError, match="version 99"):
            load_reslearn(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = checkpoint(tmp_path, lambda arrays: arrays.update(base__W1=np.zeros((2, 2))))
        with pytest.raises(CheckpointError, match="base__W1"):
            load_reslearn(path)

    @pytest.mark.parametrize("content", [b"", b"not a checkpoint\n", b"PK\x03\x04 cut"],
                             ids=["empty", "text", "truncated_zip"])
    def test_not_an_npz_rejected(self, content, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(content)
        with pytest.raises(CheckpointError):
            load_reslearn(path)

    def test_npy_array_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(CheckpointError):
            load_reslearn(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_checkpoint_rejected(self, case, tmp_path):
        path = checkpoint(tmp_path, MALFORMED[case])
        with pytest.raises(CheckpointError):
            load_reslearn(path)

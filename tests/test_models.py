import functools
import io
import json
import os
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reslearn.errors import (
    CheckpointError,
    ConfigError,
    NonFiniteLoss,
    ShapeMismatch,
    WorkerDied,
)
from reslearn.models import KINDS, PredictorConfig, build_predictor, transformer
from reslearn.models.base import ADAM_CHUNK, PREDICT_BLOCK, _flat, _sum_rows, block_bounds
from reslearn.models.transformer import (
    _last_axis_product,
    _mean_last,
    _relu,
    _row_max,
    _softmax,
    positional_encoding,
)
from reslearn.residual import ResLearnModel, forecast, load_reslearn, save_reslearn
from reslearn.seriesprep import Scaler

from cpus import on_cpus
from oracles import (
    NUMPY_REDUCTIONS,
    dict_adam_fit,
    input_embedding_grads,
    recurrent_backward,
    recurrent_forward,
    tanh_sigmoid,
    transformer_backward,
    transformer_forward,
)


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

    @pytest.mark.parametrize("setting, key", [
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"early_stop_patience": 0}, "patience"),
        ({"early_stop_min_delta": -1.0}, "min_delta"),
        ({"early_stop_min_delta": float("nan")}, "min_delta"),
        ({"early_stop_min_delta": float("inf")}, "min_delta"),
    ], ids=["lr_zero", "lr_nan", "lr_inf", "patience_zero", "min_delta_negative",
            "min_delta_nan", "min_delta_inf"])
    def test_bad_training_setting(self, setting, key):
        # named by the experiment config key
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            PredictorConfig(kind="fcnn", **setting)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_params_and_fit(self, kind):
        X, y = grad_fixture()
        a = build_predictor(small_config(kind, epochs=3))
        b = build_predictor(small_config(kind, epochs=3))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        ta = a.fit(X, y, X, y)
        tb = b.fit(X, y, X, y)
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

    # the default transformer's weights fill several Adam chunks and end in a
    # part of one; the weights of every small config fit in one
    @pytest.mark.parametrize("config, chunked", [
        *((small_config(kind, epochs=3, batch_size=16), False) for kind in KINDS),
        (PredictorConfig(kind="transformer", epochs=1, batch_size=16), True),
    ], ids=[*KINDS, "transformer_chunked"])
    def test_fit_matches_per_key_adam(self, config, chunked):
        rng = np.random.default_rng(6)
        shape, val_shape = (40, config.lookback), (12, config.lookback)
        X, Xv = rng.uniform(0.1, 0.9, shape), rng.uniform(0.1, 0.9, val_shape)
        y, yv = X.mean(axis=1), Xv.mean(axis=1)
        model = build_predictor(config)
        size = model.flat.size
        assert (size > ADAM_CHUNK and size % ADAM_CHUNK > 0) == chunked
        expected = dict_adam_fit(model, X, y, Xv, yv)
        model.fit(X, y, Xv, yv)
        np.testing.assert_array_equal(
            model.flat, np.concatenate([expected[k].ravel() for k in model.params]))
        assert_views_of_flat(model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_round_trip_keeps_views(self, kind):
        model = build_predictor(small_config(kind, epochs=2))
        X, y = grad_fixture()
        model.fit(X, y, X, y)
        copy = pickle.loads(pickle.dumps(model))
        assert copy.config == model.config
        np.testing.assert_array_equal(copy.flat, model.flat)
        assert_views_of_flat(copy)
        np.testing.assert_array_equal(copy.predict(X), model.predict(X))


class TestTraining:
    # patience = epochs and min_delta 0: training runs every epoch and keeps
    # the epoch of least loss on the training windows
    @pytest.mark.parametrize("kind", KINDS)
    def test_fits_constant_series(self, kind):
        cfg = small_config(kind, lookback=8, epochs=200, learning_rate=1e-2,
                           hidden_width=16, d_model=16, ffn_width=16,
                           early_stop_patience=200, early_stop_min_delta=0.0)
        model = build_predictor(cfg)
        X = np.full((40, 8), 0.5)
        y = np.full(40, 0.5)
        model.fit(X, y, X, y)
        pred = model.predict(X)
        assert np.mean((pred - y) ** 2) < 1e-6

    def test_fcnn_fits_window_mean(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (200, 8))
        y = X.mean(axis=1)
        cfg = small_config("fcnn", epochs=400, learning_rate=3e-3, hidden_width=32,
                           early_stop_patience=400, early_stop_min_delta=0.0)
        model = build_predictor(cfg)
        model.fit(X, y, X, y)
        assert np.mean((model.predict(X) - y) ** 2) < 1e-5

    def test_zero_epochs_no_update(self):
        model = build_predictor(small_config("fcnn", epochs=0))
        before = model.flat.copy()
        X, y = grad_fixture()
        trace = model.fit(X, y, X, y)
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
                model.fit(X, y, X, y)

    def test_shape_mismatch(self):
        model = build_predictor(small_config("lstm"))
        with pytest.raises(ShapeMismatch):
            model.predict(np.zeros((4, 5)))
        with pytest.raises(ShapeMismatch):
            model.fit(np.zeros((4, 8)), np.zeros(3), np.zeros((4, 8)), np.zeros(4))


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


def relative_gap(got, want, scale=None):
    """The largest gap of `got` from `want`, relative to the largest magnitude
    of `want`, or to `scale` when given."""
    scale = np.max(np.abs(want)) if scale is None else scale
    return float(np.max(np.abs(got - want)) / scale)


def at_offset(values, offset):
    """A copy of `values` whose data starts `offset` bytes past a 64-byte
    boundary."""
    raw = np.empty(values.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start:start + values.nbytes].view(values.dtype).reshape(values.shape)
    out[...] = values
    return out


class TestKernelTolerance:
    """The time-major recurrent kernels, the one-tanh LSTM gates, and the
    transformer's BLAS reductions and folded embedding gradient against the
    kernels they replaced, kept in tests/oracles.py: the per-step, batch-major
    LSTM and GRU with exp sigmoids, and the transformer with numpy's
    reductions and the embedding's gradient through layer 0's input
    gradient."""

    # The largest gap of a float32 `loss_and_grad` array or of `predict` from
    # the replaced kernels, relative to that array's largest magnitude, for
    # the default configs at seed 3 on the windows below, under OpenBLAS
    # 0.3.31's SkylakeX, Haswell and Sandybridge kernels alike: transformer
    # gradients 6.5e-6 on 32-step windows and 1.2e-6 on 8-step ones, both in
    # the last layer's LN2 bias, where numpy's sum is the less accurate form
    # (6.4e-6 from a float64 step, against 4.7e-7 for the product), and at
    # most 9.2e-7 in the embedding's; its predictions 2.9e-7 and 1.8e-6; the
    # lstm's, gru's and stacked_lstm's gradients at most 6.4e-7; the lstm's
    # predictions 2.1e-7 (its gates' sigmoid rounds otherwise), the gru's
    # equal, and the stacked_lstm's 3.6e-6 (its upper layer's input product
    # is also one product over all steps). 1e-5 is float32's epsilon times
    # about 80, as WHOLE_BATCH_RTOL.
    KERNEL_RTOL = 1e-5
    CHANGED = ("transformer", "lstm", "gru", "stacked_lstm")

    @staticmethod
    def reference(model):
        if model.config.kind == "transformer":
            return (functools.partial(transformer_forward, model, red=NUMPY_REDUCTIONS),
                    functools.partial(transformer_backward, model, red=NUMPY_REDUCTIONS,
                                      embedding_grads=input_embedding_grads))
        return (functools.partial(recurrent_forward, model),
                functools.partial(recurrent_backward, model))

    def gradient_gaps(self, model) -> dict[str, float]:
        """Each float32 gradient array's gap from the reference's."""
        forward, backward = self.reference(model)
        x = np.random.default_rng(1).uniform(0, 1, (32, model.config.lookback))
        x, y = x.astype(np.float32), x.mean(axis=1).astype(np.float32)
        params = {k: v.astype(np.float32) for k, v in model.params.items()}
        pred, cache = forward(params, x)
        diff = pred - y
        want = backward(params, cache, 2.0 * diff / diff.size)
        loss, grad = model.loss_and_grad(x, y, params=params)
        assert grad.dtype == np.float32
        assert loss == pytest.approx(float(np.mean(diff ** 2)), rel=self.KERNEL_RTOL)
        largest = max(np.max(np.abs(w)) for w in want.values())
        gaps, offset = {}, 0
        for k, v in params.items():
            got = grad[offset:offset + v.size].reshape(v.shape)
            offset += v.size
            # the keys' bias has no effect on the loss (softmax is invariant to
            # a shift of a row), so both forms of its gradient are rounding
            # residue, about 1e-10: its gap is taken against the largest
            # gradient entry of any array
            gaps[k] = relative_gap(got, want[k], largest if k.endswith("_bk") else None)
        return gaps

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("kind", ("lstm", "gru"))
    @pytest.mark.parametrize("n", (1, 8, 26, 32))
    def test_layer0_forward_is_bit_identical(self, n, kind, dtype):
        model = build_predictor(PredictorConfig(kind=kind, seed=3))
        x = np.random.default_rng(n).uniform(0, 1, (n, 32)).astype(dtype)
        params = {k: v.astype(dtype) for k, v in model.params.items()}
        pred, (layer_caches, _) = model._forward(params, x)
        want_pred, (want_caches, _) = recurrent_forward(model, params, x, tanh_sigmoid)
        assert pred.tobytes() == want_pred.tobytes()
        _, states = layer_caches[0]
        _, want_gates, want_c, want_h = want_caches[0]
        gates = states[0]                      # (t, k, n, d) -> (n, t, k·d)
        assert gates.transpose(2, 0, 1, 3).reshape(want_gates.shape).tobytes() == \
            want_gates.tobytes()
        assert states[-1].transpose(1, 0, 2).tobytes() == want_h.tobytes()
        if kind == "lstm":
            assert states[1].transpose(1, 0, 2).tobytes() == want_c.tobytes()

    # on 32-step windows the gradients of the first steps have all but
    # vanished; on 8-step windows every step's terms count
    @pytest.mark.parametrize("lookback", (32, 8))
    @pytest.mark.parametrize("kind", CHANGED)
    def test_float32_step_and_predict_within_tolerance(self, kind, lookback):
        model = build_predictor(PredictorConfig(kind=kind, seed=3, lookback=lookback))
        gaps = self.gradient_gaps(model)
        assert max(gaps.values()) < self.KERNEL_RTOL, max(gaps, key=gaps.get)
        forward, _ = self.reference(model)
        x = np.random.default_rng(2).uniform(0, 1, (100, lookback))
        params32 = {k: v.astype(np.float32) for k, v in model.params.items()}
        bounds = block_bounds(len(x), PREDICT_BLOCK)
        want = np.concatenate([forward(params32, x[a:b].astype(np.float32))[0]
                               for a, b in zip(bounds, bounds[1:])])
        assert relative_gap(model.predict(x), want) < self.KERNEL_RTOL

    def test_dropping_step_0_from_dwh_fails(self, monkeypatch):
        # the mutant leaves out the term of step 0's hidden state, which meets
        # step 1's gate gradient, from the recurrent weights' gradient: 9e-3
        # of it on 8-step windows (3e-7 on 32-step ones, where it has all but
        # vanished)
        model = build_predictor(PredictorConfig(kind="lstm", seed=3, lookback=8))
        kernel = model.backward_kernel

        def mutant(x, states, dh_out, *weights):
            gates, c_all, tc_all, h_all = states
            h_all = h_all.copy()
            h_all[0] = 0.0
            return kernel(x, (gates, c_all, tc_all, h_all), dh_out, *weights)

        monkeypatch.setattr(model, "backward_kernel", mutant)
        gaps = self.gradient_gaps(model)
        assert gaps["l0_Wh"] > self.KERNEL_RTOL
        assert max(gap for k, gap in gaps.items() if k != "l0_Wh") < self.KERNEL_RTOL

    @pytest.mark.parametrize("branch", ("q", "k", "v"))
    def test_dropping_a_branch_from_in_w_fails(self, branch, monkeypatch):
        # the mutant leaves one branch's term (xᵀ·d)·Wᵀ out of the embedding
        # weight's gradient, keeping its bias gradient's term: 4.7e-3, 6.9e-4
        # and 0.28 of it for q, k and v
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        fold, drop = transformer._embedding_grads, "qkv".index(branch)

        def mutant(x_in, d_res1, branches):
            branches = list(branches)
            d, w, g_b = branches[drop]
            branches[drop] = (np.zeros_like(d), w, g_b)
            return fold(x_in, d_res1, branches)

        monkeypatch.setattr(transformer, "_embedding_grads", mutant)
        gaps = self.gradient_gaps(model)
        assert gaps["in_W"] > self.KERNEL_RTOL
        assert max(gap for k, gap in gaps.items() if k != "in_W") < self.KERNEL_RTOL

    @staticmethod
    def layer0_products(d):
        """The embedding gradient's `xᵀ·d`, x a batch of 32 windows placed at
        d's offset from a 64-byte boundary."""
        x = np.random.default_rng(5).uniform(0, 1, (32, 32, 1)).astype(np.float32)
        x = at_offset(x, d.ctypes.data % 64)
        return _flat(x).T @ _flat(d)

    # Where malloc puts a buffer must not change a sum's bits, or reruns
    # would not be byte-identical: each BLAS reduction, on the same values at
    # every 4-byte offset within 64 bytes, gives the same bits.
    @pytest.mark.parametrize("reduction, shape", [
        (_mean_last, (32, 32, 64)),
        (functools.partial(_last_axis_product, value=1.0), (32, 2, 32, 32)),
        (_sum_rows, (32, 32, 64)),
        (_sum_rows, (32, 32, 128)),
        (_sum_rows, (32 * 32, 4 * 64)),
        (layer0_products, (32, 32, 64)),
    ], ids=["mean_last", "row_sums", "column_sums", "column_sums_ffn", "gate_bias_sums",
            "layer0_products"])
    def test_reductions_ignore_alignment(self, reduction, shape):
        values = np.random.default_rng(4).normal(size=shape).astype(np.float32)
        want = reduction(at_offset(values, 0)).tobytes()
        for offset in range(4, 64, 4):
            assert reduction(at_offset(values, offset)).tobytes() == want, offset


class TestTrainingMemory:
    """Peak bytes allocated, by tracemalloc, in the default transformer's
    training: a step keeps no layer-norm output, the backward rebuilding each
    from its xhat and dropping each activation after its last use, and Adam
    updates in place a chunk at a time (9.2 and 12.7 MB when the backward held
    every activation and Adam allocated each term; 6.53 and 9.80 MB when the
    layer-norm outputs were kept and Adam's work vectors were as long as the
    weights)."""

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_step(self):
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (32, 32)).astype(np.float32)
        y = x.mean(axis=1)
        params = {k: v.astype(np.float32) for k, v in model.params.items()}
        assert self.peak(lambda: model.loss_and_grad(x, y, params=params)) < 6.3e6

    def test_fit(self):
        model = build_predictor(PredictorConfig(kind="transformer", seed=3, epochs=2))
        rng = np.random.default_rng(0)
        x, xv = rng.uniform(0, 1, (168, 32)), rng.uniform(0, 1, (50, 32))
        assert self.peak(lambda: model.fit(x, x.mean(axis=1), xv, xv.mean(axis=1))) < 9.0e6


class TestBlockInference:
    # sizes around the block edges, with one-window remainders
    SIZES = (0, 1, 2, 31, 32, 33, 34, 35, 39, 63, 64, 65, 100, 255, 256, 257, 513, 1968)

    # The largest deviation of `predict` from one whole-batch float32 forward,
    # relative to the largest absolute prediction, over SIZES: 0 with
    # OpenBLAS 0.3.31's SkylakeX kernels; with its Haswell kernels transformer
    # 0, lstm 1.0e-7, gru 5.9e-7, stacked_lstm 2.4e-6, fcnn 2.9e-7, as a BLAS
    # kernel may round a row by its place in the tiling. 1e-5 is float32's
    # epsilon times about 80.
    WHOLE_BATCH_RTOL = 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_equals_whole_batch_forward(self, kind):
        """`predict`, and `forecast` of the model as both stages on any number
        of CPUs, give the bits of one float32 forward per block, and are
        within WHOLE_BATCH_RTOL of one whole-batch forward: blocks start at
        multiples of PREDICT_BLOCK, and a one-window remainder joins the block
        before it."""
        model = build_predictor(PredictorConfig(kind=kind, seed=3))
        both = ResLearnModel(model, model, 0.0, Scaler(0.0, 1.0))
        x = np.random.default_rng(0).uniform(0, 1, (max(self.SIZES), 32))
        params32 = {k: v.astype(np.float32) for k, v in model.params.items()}
        x32 = x.astype(np.float32)
        for n in self.SIZES:
            starts = list(range(0, n, PREDICT_BLOCK))
            if len(starts) > 1 and n - starts[-1] == 1:
                del starts[-1]
            blocks = [model._forward(params32, x32[a:b])[0]
                      for a, b in zip(starts, starts[1:] + [n])]
            by_block = np.concatenate(blocks or [np.empty(0)]).astype(np.float64)
            got = model.predict(x[:n])
            assert np.array_equal(got, by_block), n
            # 2 and 3 runs: even and uneven runs, and fewer blocks than CPUs
            for cpus in (1, 2, 3):
                with on_cpus(cpus):
                    base, residual = forecast(both, x[:n])
                assert np.array_equal(base, by_block), (n, cpus)
                assert np.array_equal(residual, by_block), (n, cpus)
            whole, _ = model._forward(params32, x32[:n])
            np.testing.assert_allclose(got, whole, rtol=0,
                                       atol=self.WHOLE_BATCH_RTOL * np.max(np.abs(whole), initial=0))

    @staticmethod
    def marked_forecast(marks: dict, monkeypatch, cpus: int = 2):
        """`forecast` of an fcnn as both stages on 6 blocks of windows, on
        `cpus` usable CPUs, where block b calls `marks[b]`, if given, before its
        forward."""
        model = build_predictor(PredictorConfig(kind="fcnn", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (6 * PREDICT_BLOCK, 32))
        acts = {-1.0 - block: act for block, act in marks.items()}
        for block in marks:
            x[PREDICT_BLOCK * block, 0] = -1.0 - block      # no window value is negative
        real_forward = model._forward

        def forward(params, inputs):
            acts.get(float(inputs[0, 0]), lambda: None)()
            return real_forward(params, inputs)

        monkeypatch.setattr(model, "_forward", forward)
        with on_cpus(cpus):
            return forecast(ResLearnModel(model, model, 0.0, Scaler(0.0, 1.0)), x)

    @pytest.mark.parametrize("failing_block, cpus", [(0, 1), (5, 2)],
                             ids=["in_process", "in_child"])
    def test_block_error_reaches_caller(self, failing_block, cpus, monkeypatch):
        def fail():
            raise ValueError(f"block {failing_block}")

        with pytest.raises(ValueError, match=f"block {failing_block}"):
            self.marked_forecast({failing_block: fail}, monkeypatch, cpus)

    def test_dead_child_is_worker_died_and_its_sibling_is_reaped(self, monkeypatch):
        # three runs of two blocks: the child that takes the third run dies in
        # its first block, while the one that took the second is still asleep
        start = time.monotonic()
        with pytest.raises(WorkerDied, match=r"died before it answered \(exit code 7\)"):
            self.marked_forecast({2: lambda: time.sleep(60), 4: lambda: os._exit(7)},
                                 monkeypatch, cpus=3)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):          # every child reaped
            os.waitpid(-1, os.WNOHANG)

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

    def test_forecast_memory_bounded_by_block(self):
        # on one CPU this process predicts every block, one at a time; on two
        # the children predict, and this process holds only their answers
        model = build_predictor(PredictorConfig(kind="transformer", seed=3))
        x = np.random.default_rng(0).uniform(0, 1, (2000, 32))
        for cpus in (1, 2):
            tracemalloc.start()
            try:
                with on_cpus(cpus):
                    forecast(ResLearnModel(model, model, 0.0, Scaler(0.0, 1.0)), x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 10e6, cpus


class TestArchitectures:
    def test_stacked_lstm_has_more_params_than_lstm(self):
        lstm = build_predictor(small_config("lstm"))
        stacked = build_predictor(small_config("stacked_lstm"))
        assert stacked.flat.size > lstm.flat.size

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_row_max_is_max(self, dtype):
        rng = np.random.default_rng(8)
        for length in range(1, 66):
            # few distinct values, so rows hold ties, some -inf entries and
            # one row all -inf
            x = rng.integers(-3, 3, (4, 2, 3, length)).astype(dtype)
            x[x == -3] = -np.inf
            x[0, 0, 0] = -np.inf
            want = x.max(axis=-1, keepdims=True)
            got = _row_max(x)
            assert (got.dtype, got.shape) == (dtype, want.shape)
            assert got.tobytes() == want.tobytes(), length

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_relu_and_row_max_keep_values_on_edge_cases(self, dtype):
        info = np.finfo(dtype)
        edges = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                          info.max, -info.max, np.nan, 1.0, -1.0], dtype=dtype)
        x = np.random.default_rng(9).choice(edges, (4, 2, 6, 7))
        x[0, 0, 0] = [0.0, -0.0] * 3 + [-0.0]
        with np.errstate(all="raise"):
            relu, row_max = _relu(x.copy()), _row_max(x)
        for got, want in ((relu, np.maximum(x, 0.0)), (row_max, x.max(axis=-1, keepdims=True))):
            assert (got.dtype, got.shape) == (dtype, want.shape)
            np.testing.assert_array_equal(got, want)     # -0.0 == 0.0, and NaN where NaN

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
    # a JSON integer past the float range
    "scaler_bound_overflows": meta_edit(lambda meta: meta["scaler"].update(lo=10**400)),
    "res_b_missing": meta_edit(lambda meta: meta.pop("res_b")),
    "literal_combine_missing": meta_edit(lambda meta: meta.pop("paper_literal_combine")),
    "parameter_missing": lambda arrays: arrays.pop("residual__b3"),
    "parameter_not_float": lambda arrays: arrays.update(base__b1=np.array(["x"] * 8)),
}


def set_entry(key, value):
    """An `edit` that sets the first entry of the array `key` to `value`."""
    def edit(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = value

    return edit


# checkpoints whose values would make every prediction nan, inf, unscaled or
# shifted by res_b, and the field each one's error names
BAD_VALUES = {
    "res_b_nan": (meta_edit(lambda meta: meta.update(res_b=float("nan"))), "res_b"),
    "res_b_inf": (meta_edit(lambda meta: meta.update(res_b=float("inf"))), "res_b"),
    "scaler_lo_nan": (meta_edit(lambda meta: meta["scaler"].update(lo=float("nan"))),
                      "scaler.lo"),
    "scaler_hi_inf": (meta_edit(lambda meta: meta["scaler"].update(hi=float("inf"))),
                      "scaler.hi"),
    "scaler_hi_not_above_lo": (meta_edit(lambda meta: meta["scaler"].update(hi=1.0)),
                               "scaler.hi"),
    "weight_nan": (set_entry("base__W1", np.nan), "base__W1"),
    "weight_inf": (set_entry("residual__b3", -np.inf), "residual__b3"),
    # written by an older build whose config set the key: its combine kept res_b
    "literal_combine": (meta_edit(lambda meta: meta.update(paper_literal_combine=True)),
                        "paper_literal_combine"),
}


class TestCheckpoints:
    """save_reslearn / load_reslearn, the one checkpoint codec."""

    def test_round_trip(self, tmp_path):
        X, y = grad_fixture()
        model = two_stage("transformer")
        model.base.fit(X, y, X, y)
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

    def test_metadata_keeps_format_1(self, tmp_path):
        # older builds, and the benchmark's reference forecast, read these keys
        with np.load(checkpoint(tmp_path)) as data:
            meta = json.loads(str(data["__meta__"]))
        assert list(meta) == ["version", "res_b", "scaler", "paper_literal_combine",
                              "base_config", "residual_config"]
        assert meta["version"] == 1 and meta["paper_literal_combine"] is False

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

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_rejected(self, case, tmp_path):
        edit, field = BAD_VALUES[case]
        with pytest.raises(CheckpointError, match=f"^{re.escape(field)} "):
            load_reslearn(checkpoint(tmp_path, edit))

    def test_identity_scaler_loads(self, tmp_path):
        # a constant training series: lo == hi, and the scaler passes values through
        path = checkpoint(tmp_path, meta_edit(
            lambda meta: meta.update(scaler={"lo": 2.0, "hi": 2.0, "identity": True})))
        assert load_reslearn(path).scaler == Scaler(2.0, 2.0, identity=True)

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_and_unpickle_keep_every_bit_and_draw_nothing(self, kind, tmp_path,
                                                               monkeypatch):
        X, y = grad_fixture()
        model = two_stage(kind)
        model.base.fit(X, y, X, y)
        path = tmp_path / "model.npz"
        save_reslearn(model, path)

        def draw(*args):
            raise AssertionError("initial weights drawn for a model whose weights are saved")

        monkeypatch.setattr(np.random, "default_rng", draw)
        loaded = load_reslearn(path)
        unpickled = pickle.loads(pickle.dumps(model))
        for copy in (loaded, unpickled):
            for stage in ("base", "residual"):
                assert getattr(copy, stage).flat.tobytes() == getattr(model, stage).flat.tobytes()
                assert_views_of_flat(getattr(copy, stage))

    def test_central_directory_offset_past_its_place_rejected(self, tmp_path):
        # found by the fuzz below: with the end record's central-directory
        # offset raised by 0xE20000, zipfile seeks each member to a negative
        # offset, an OSError
        content = bytearray(saved_fcnn_checkpoint())
        content[content.rfind(b"PK\x05\x06") + 18] ^= 0xE2
        path = tmp_path / "ckpt.npz"
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match="^not an npz archive"):
            load_reslearn(path)

    # a bad checkpoint never ends in another error. 20000 such mutations, run
    # apart from this test, gave about 97.5% CheckpointError and 2.5% loaded
    # (a change in a field that zip does not check) and no other outcome
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_mutated_checkpoint_loads_or_is_rejected(self, tmp_path, data):
        content = bytearray(saved_fcnn_checkpoint())
        for _ in range(data.draw(st.integers(1, 4), label="bytes changed")):
            at = data.draw(st.integers(0, len(content) - 1), label="offset")
            content[at] ^= data.draw(st.integers(1, 255), label="xor")
        cut = data.draw(st.none() | st.integers(0, len(content) - 1), label="truncated to")
        path = tmp_path / "ckpt.npz"
        path.write_bytes(content[:cut])
        try:
            model = load_reslearn(path)
        except CheckpointError:
            return
        assert np.isfinite(model.base.flat).all() and np.isfinite(model.residual.flat).all()


@functools.cache
def saved_fcnn_checkpoint() -> bytes:
    """The bytes of a saved two-stage fcnn checkpoint, made once."""
    buffer = io.BytesIO()
    save_reslearn(two_stage(), buffer)
    return buffer.getvalue()

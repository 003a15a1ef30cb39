"""Encoder-only transformer for one-step forecasting.

Scalar inputs are projected to d_model, tagged with sinusoidal position
codes, run through post-norm encoder blocks (multi-head self-attention +
position-wise FFN), mean-pooled over positions, and mapped to one output.
All gradients are derived by hand and verified against finite differences.
The kernels overwrite arrays that are not needed again instead of allocating
new ones, without reordering any arithmetic, so they give the same bits as
the out-of-place forms in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Predictor, PredictorConfig, uniform_init

LN_EPS = 1e-5


def positional_encoding(length: int, d_model: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(d_model)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / d_model)
    pe = np.empty((length, d_model))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe


def _layernorm_forward(x, gain, bias):
    """Layer norm of `x` over its last axis; `x` is overwritten (it becomes the
    cached xhat)."""
    mu = x.mean(axis=-1, keepdims=True)
    x -= mu
    var = (x * x).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x *= inv
    out = x * gain
    out += bias
    return out, (x, inv)


def _layernorm_backward(d_out, gain, cache):
    """Gradients of `_layernorm_forward`; `d_out` is overwritten (it becomes
    the returned d_x)."""
    xhat, inv = cache
    prod = d_out * xhat
    d_gain = prod.sum(axis=(0, 1))
    d_bias = d_out.sum(axis=(0, 1))
    d_xhat = d_out
    d_xhat *= gain
    mean_d = d_xhat.mean(axis=-1, keepdims=True)
    np.multiply(d_xhat, xhat, out=prod)
    mean_dx = prod.mean(axis=-1, keepdims=True)
    d_xhat -= mean_d
    np.multiply(xhat, mean_dx, out=prod)
    d_xhat -= prod
    d_xhat *= inv
    return d_xhat, d_gain, d_bias


def _softmax(scores):
    """Softmax over the last axis, computed in place: `scores` is overwritten
    and returned."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class TransformerPredictor(Predictor):
    def __init__(self, config: PredictorConfig, draw: bool = True):
        self.head_dim = config.d_model // config.n_heads
        self.pe = positional_encoding(config.lookback, config.d_model)
        super().__init__(config, draw)

    def init_params(self, rng):
        d = self.config.d_model
        f = self.config.ffn_width
        params = {
            "in_W": uniform_init(rng, (1, d), 1),
            "in_b": np.zeros(d),
        }
        for layer in range(self.config.n_layers):
            p = f"l{layer}_"
            for name in ("Wq", "Wk", "Wv", "Wo"):
                params[p + name] = uniform_init(rng, (d, d), d)
            for name in ("bq", "bk", "bv", "bo"):
                params[p + name] = np.zeros(d)
            params[p + "ln1_g"] = np.ones(d)
            params[p + "ln1_b"] = np.zeros(d)
            params[p + "ffn_W1"] = uniform_init(rng, (d, f), d)
            params[p + "ffn_b1"] = np.zeros(f)
            params[p + "ffn_W2"] = uniform_init(rng, (f, d), f)
            params[p + "ffn_b2"] = np.zeros(d)
            params[p + "ln2_g"] = np.ones(d)
            params[p + "ln2_b"] = np.zeros(d)
        params["head_W"] = uniform_init(rng, (d, 1), d)
        params["head_b"] = np.zeros(1)
        return params

    def _split_heads(self, x):
        n, w, d = x.shape
        h = self.config.n_heads
        return x.reshape(n, w, h, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x):
        n, h, w, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, w, h * dh)

    def _forward(self, params, inputs):
        cfg = self.config
        x_in = inputs[:, :, None]
        h = _affine(x_in, params["in_W"], params["in_b"])
        h += self.pe.astype(inputs.dtype, copy=False)
        layer_caches = []
        for layer in range(cfg.n_layers):
            p = f"l{layer}_"
            q = self._split_heads(_affine(h, params[p + "Wq"], params[p + "bq"]))
            k = self._split_heads(_affine(h, params[p + "Wk"], params[p + "bk"]))
            v = self._split_heads(_affine(h, params[p + "Wv"], params[p + "bv"]))
            scores = q @ k.transpose(0, 1, 3, 2)
            # a Python float scale: a numpy float64 one would upcast float32
            scores /= math.sqrt(self.head_dim)
            attn = _softmax(scores)
            ctx = self._merge_heads(attn @ v)
            attn_out = _affine(ctx, params[p + "Wo"], params[p + "bo"])
            attn_out += h
            h1, ln1_cache = _layernorm_forward(attn_out, params[p + "ln1_g"], params[p + "ln1_b"])
            a1 = _affine(h1, params[p + "ffn_W1"], params[p + "ffn_b1"])
            np.maximum(a1, 0.0, out=a1)
            ffn_out = _affine(a1, params[p + "ffn_W2"], params[p + "ffn_b2"])
            ffn_out += h1
            h_next, ln2_cache = _layernorm_forward(ffn_out, params[p + "ln2_g"], params[p + "ln2_b"])
            layer_caches.append((h, q, k, v, attn, ctx, ln1_cache, h1, a1, ln2_cache))
            h = h_next
        pooled = h.mean(axis=1)
        pred = (pooled @ params["head_W"] + params["head_b"])[:, 0]
        return pred, (x_in, layer_caches, pooled)

    def _backward(self, params, cache, d_pred):
        cfg = self.config
        x_in, layer_caches, pooled = cache
        grads = {}
        d_out = d_pred[:, None]
        grads["head_W"] = pooled.T @ d_out
        grads["head_b"] = d_out.sum(axis=0)
        d_pooled = d_out @ params["head_W"].T
        w = cfg.lookback
        d_h = np.repeat(d_pooled[:, None, :], w, axis=1)
        d_h /= w

        for layer in range(cfg.n_layers - 1, -1, -1):
            p = f"l{layer}_"
            h_in, q, k, v, attn, ctx, ln1_cache, h1, a1, ln2_cache = layer_caches[layer]

            d_res2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_backward(
                d_h, params[p + "ln2_g"], ln2_cache
            )
            # FFN branch
            grads[p + "ffn_W2"] = _flat(a1).T @ _flat(d_res2)
            grads[p + "ffn_b2"] = d_res2.sum(axis=(0, 1))
            d_z1 = _matmul_t(d_res2, params[p + "ffn_W2"])
            d_z1 *= a1 > 0                  # a1 > 0 exactly where z1 > 0
            grads[p + "ffn_W1"] = _flat(h1).T @ _flat(d_z1)
            grads[p + "ffn_b1"] = d_z1.sum(axis=(0, 1))
            d_h1 = _matmul_t(d_z1, params[p + "ffn_W1"])
            d_h1 += d_res2

            d_res1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_backward(
                d_h1, params[p + "ln1_g"], ln1_cache
            )
            # attention branch
            grads[p + "Wo"] = _flat(ctx).T @ _flat(d_res1)
            grads[p + "bo"] = d_res1.sum(axis=(0, 1))
            d_ctx = self._split_heads(_matmul_t(d_res1, params[p + "Wo"]))
            d_scores = d_ctx @ v.transpose(0, 1, 3, 2)
            d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
            d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
            d_scores *= attn
            d_scores /= math.sqrt(self.head_dim)
            d_q = self._merge_heads(d_scores @ k)
            d_k = self._merge_heads(d_scores.transpose(0, 1, 3, 2) @ q)
            d_v = self._merge_heads(d_v)
            d_h = d_res1
            for name, d in (("q", d_q), ("k", d_k), ("v", d_v)):
                grads[p + "W" + name] = _flat(h_in).T @ _flat(d)
                grads[p + "b" + name] = d.sum(axis=(0, 1))
                d_h += _matmul_t(d, params[p + "W" + name])

        grads["in_W"] = _flat(x_in).T @ _flat(d_h)
        grads["in_b"] = d_h.sum(axis=(0, 1))
        return grads


def _affine(x, w, b):
    """`x @ w + b`, the bias added in place."""
    out = x @ w
    out += b
    return out


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _matmul_t(x, w):
    """`x @ w.T` over the last axis of `x`, as one 2-D product: numpy multiplies
    a stacked operand by a transposed matrix slice by slice, 1.5-2x slower, to
    the same bits."""
    return (_flat(x) @ w.T).reshape(*x.shape[:-1], w.shape[0])

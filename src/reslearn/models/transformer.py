"""Encoder-only transformer for one-step forecasting.

Scalar inputs are projected to d_model, tagged with sinusoidal position
codes, run through post-norm encoder blocks (multi-head self-attention +
position-wise FFN), mean-pooled over positions, and mapped to one output.
All gradients are derived by hand and verified against finite differences.

The row reductions (the layer-norm means in the forward and the backward, the
softmax row sums and the attention backward's row sum) and the column sums of
the gain and bias gradients are float matrix-vector products with a ones or
1/d vector: one BLAS call over all the rows, where numpy reduces row by row.
They add in another order than numpy's reductions, so the kernels differ from
that form within the tolerance tests/test_models.py states. So does the
embedding's gradient: layer 0's backward forms no input gradient, whose only
reader is the embedding, and takes `in_W`'s gradient as `xᵀ·d_res1 + Σ
(xᵀ·d)·Wᵀ` and `in_b`'s as `1ᵀ·d_res1 + Σ g_b·Wᵀ` over the q, k and v
branches (d their gradient, W their weight, g_b their bias gradient): one
matrix-vector product per branch where the input gradient took an
(n·w, d)·(d, d) product.

The forward's embedding, softmax row max and ReLU take cheaper forms of the
same values: a broadcast multiply for the one-feature product, the column max
of a transposed copy, and a multiply by the positive mask.

The kernels overwrite arrays that are not needed again instead of allocating
new ones, and the backward drops each cached activation and temporary after
its last use, without reordering any arithmetic, so they give the same bits as
the out-of-place forms in tests/oracles.py, which take the same products. The
forward caches no layer-norm output: the backward rebuilds each from the
norm's xhat with the same two ops.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Predictor, PredictorConfig, _flat, _sum_rows, uniform_init

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
    x -= _mean_last(x)
    var = _mean_last(x * x)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x *= inv
    return _layernorm_out(x, gain, bias), (x, inv)


def _layernorm_out(xhat, gain, bias):
    """`xhat * gain + bias`, the layer norm's output from its cached xhat: the
    forward's own two ops, so the backward rebuilds the same bits."""
    out = xhat * gain
    out += bias
    return out


def _layernorm_backward(d_out, gain, cache):
    """Gradients of `_layernorm_forward`; `d_out` is overwritten (it becomes
    the returned d_x)."""
    xhat, inv = cache
    prod = d_out * xhat
    d_gain = _sum_rows(prod)
    d_bias = _sum_rows(d_out)
    d_xhat = d_out
    d_xhat *= gain
    mean_d = _mean_last(d_xhat)
    np.multiply(d_xhat, xhat, out=prod)
    mean_dx = _mean_last(prod)
    d_xhat -= mean_d
    np.multiply(xhat, mean_dx, out=prod)
    d_xhat -= prod
    d_xhat *= inv
    return d_xhat, d_gain, d_bias


def _softmax(scores):
    """Softmax over the last axis, computed in place: `scores` is overwritten
    and returned."""
    scores -= _row_max(scores)
    np.exp(scores, out=scores)
    scores /= _last_axis_product(scores, 1.0)
    return scores


def _row_max(x):
    """`x.max(axis=-1, keepdims=True)` as the column max of a contiguous copy
    of the rows transposed: numpy takes that max as an elementwise maximum of
    whole rows, where it reduces a last axis one row at a time; about twice
    as fast on attention scores, and exact, so the same values."""
    columns = np.ascontiguousarray(_flat(x).T)
    return columns.max(axis=0).reshape(*x.shape[:-1], 1)


def _relu(a):
    """`np.maximum(a, 0.0)` in place, as `a` times its mask `a > 0`: the same
    values (a negative entry becomes -0.0), but -inf becomes NaN, which the
    loss check then reports. `a` is returned."""
    return np.multiply(a, a > 0, out=a)


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
        h = x_in * params["in_W"][0]        # one input feature: each entry one product
        h += params["in_b"]
        h += self.pe.astype(inputs.dtype, copy=False)
        embedded = h
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
            _relu(a1)
            ffn_out = _affine(a1, params[p + "ffn_W2"], params[p + "ffn_b2"])
            ffn_out += h1
            del h1                          # the backward rebuilds it from ln1's xhat
            h, ln2_cache = _layernorm_forward(ffn_out, params[p + "ln2_g"], params[p + "ln2_b"])
            layer_caches.append((q, k, v, attn, ctx, ln1_cache, a1, ln2_cache))
        pooled = h.mean(axis=1)
        pred = (pooled @ params["head_W"] + params["head_b"])[:, 0]
        return pred, (x_in, embedded, layer_caches, pooled)

    def _backward(self, params, cache, d_pred):
        """Consumes `cache`: each layer's entry of its list is set to None as
        the layer's backward starts, so a cache serves one backward only."""
        cfg = self.config
        x_in, embedded, layer_caches, pooled = cache
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
            q, k, v, attn, ctx, ln1_cache, a1, ln2_cache = layer_caches[layer]
            layer_caches[layer] = None      # so that each `del` below frees its array

            d_res2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_backward(
                d_h, params[p + "ln2_g"], ln2_cache
            )
            del d_h, ln2_cache              # d_h is d_res2, overwritten
            # FFN branch
            grads[p + "ffn_W2"] = _flat(a1).T @ _flat(d_res2)
            grads[p + "ffn_b2"] = _sum_rows(d_res2)
            d_z1 = _matmul_t(d_res2, params[p + "ffn_W2"])
            d_z1 *= a1 > 0                  # a1 > 0 exactly where z1 > 0
            del a1
            h1 = _layernorm_out(ln1_cache[0], params[p + "ln1_g"], params[p + "ln1_b"])
            grads[p + "ffn_W1"] = _flat(h1).T @ _flat(d_z1)
            del h1
            grads[p + "ffn_b1"] = _sum_rows(d_z1)
            d_h1 = _matmul_t(d_z1, params[p + "ffn_W1"])
            d_h1 += d_res2
            del d_z1, d_res2

            d_res1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_backward(
                d_h1, params[p + "ln1_g"], ln1_cache
            )
            del d_h1, ln1_cache             # d_h1 is d_res1, overwritten
            # attention branch
            grads[p + "Wo"] = _flat(ctx).T @ _flat(d_res1)
            del ctx
            grads[p + "bo"] = _sum_rows(d_res1)
            d_ctx = self._split_heads(_matmul_t(d_res1, params[p + "Wo"]))
            d_scores = d_ctx @ v.transpose(0, 1, 3, 2)
            del v
            d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
            del d_ctx
            d_scores -= _last_axis_product(d_scores * attn, 1.0)
            d_scores *= attn
            del attn
            d_scores /= math.sqrt(self.head_dim)
            d_q = self._merge_heads(d_scores @ k)
            del k
            d_k = self._merge_heads(d_scores.transpose(0, 1, 3, 2) @ q)
            del d_scores, q
            d_v = self._merge_heads(d_v)
            if layer == 0:
                h_in = embedded
            else:                           # the LN2 output of the layer before
                prev = f"l{layer - 1}_"
                h_in = _layernorm_out(layer_caches[layer - 1][-1][0],
                                      params[prev + "ln2_g"], params[prev + "ln2_b"])
            branches = []
            for name, d in (("q", d_q), ("k", d_k), ("v", d_v)):
                grads[p + "W" + name] = _flat(h_in).T @ _flat(d)
                grads[p + "b" + name] = _sum_rows(d)
                branches.append((d, params[p + "W" + name], grads[p + "b" + name]))
            del h_in
            if layer == 0:
                grads["in_W"], grads["in_b"] = _embedding_grads(x_in, d_res1, branches)
            else:
                d_h = d_res1
                for d, w, _ in branches:
                    d_h += _matmul_t(d, w)
            del d_res1, d_q, d_k, d_v, d, branches
        return grads


def _embedding_grads(x_in, d_res1, branches):
    """(d_in_W, d_in_b) of the embedding `x * in_W + in_b`, from layer 0's
    residual gradient `d_res1` and its (d, W, g_b) of q, k and v, without
    forming the input gradient `d_res1 + Σ d·Wᵀ`: `xᵀ·d_res1 + Σ (xᵀ·d)·Wᵀ`
    and `1ᵀ·d_res1 + Σ g_b·Wᵀ`."""
    x_t = _flat(x_in).T
    d_w = x_t @ _flat(d_res1)
    d_b = _sum_rows(d_res1)
    for d, w, g_b in branches:
        d_w += (x_t @ _flat(d)) @ w.T
        d_b += g_b @ w.T
    return d_w, d_b


def _affine(x, w, b):
    """`x @ w + b`, the bias added in place."""
    out = x @ w
    out += b
    return out


def _last_axis_product(x, value):
    """Each row of `x` over its last axis times a vector filled with `value`,
    shaped like `x` with a last axis of 1: one float matrix-vector product
    over all the rows, where numpy's own reduction runs row by row."""
    vector = np.full(x.shape[-1], value, dtype=x.dtype)
    return (_flat(x) @ vector).reshape(*x.shape[:-1], 1)


def _mean_last(x):
    """`x.mean(axis=-1, keepdims=True)`, as a product with a 1/d vector."""
    return _last_axis_product(x, 1.0 / x.shape[-1])


def _matmul_t(x, w):
    """`x @ w.T` over the last axis of `x`, as one 2-D product: numpy multiplies
    a stacked operand by a transposed matrix slice by slice, 1.5-2x slower, to
    the same bits."""
    return (_flat(x) @ w.T).reshape(*x.shape[:-1], w.shape[0])

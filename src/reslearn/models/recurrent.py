"""LSTM / GRU / stacked-LSTM predictors.

The per-timestep recurrences loop over the lookback steps and vectorize over
the batch. Gate math follows the classic formulations; gradients are exact
BPTT and covered by finite-difference checks in the test suite. Every buffer
takes the dtype of the input, so a float32 training step stays float32.
"""

from __future__ import annotations

import numpy as np

from .base import Predictor, PredictorConfig, uniform_init


def lstm_forward(x, wx, wh, b):
    n, t_len, _ = x.shape
    d = wh.shape[0]
    gates = np.zeros((n, t_len, 4 * d), dtype=x.dtype)
    c_all = np.zeros((n, t_len, d), dtype=x.dtype)
    h_all = np.zeros((n, t_len, d), dtype=x.dtype)
    h = np.zeros((n, d), dtype=x.dtype)
    c = np.zeros((n, d), dtype=x.dtype)
    for t in range(t_len):
        xt = x[:, t, :]
        z = xt @ wx + h @ wh + b
        gi = 1.0 / (1.0 + np.exp(-z[:, :d]))
        gf = 1.0 / (1.0 + np.exp(-z[:, d:2 * d]))
        gg = np.tanh(z[:, 2 * d:3 * d])
        go = 1.0 / (1.0 + np.exp(-z[:, 3 * d:]))
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        gates[:, t, :d] = gi
        gates[:, t, d:2 * d] = gf
        gates[:, t, 2 * d:3 * d] = gg
        gates[:, t, 3 * d:] = go
        c_all[:, t, :] = c
        h_all[:, t, :] = h
    return gates, c_all, h_all


def lstm_backward(x, wx, wh, gates, c_all, h_all, dh_out):
    n, t_len, i_dim = x.shape
    d = wh.shape[0]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * d, dtype=x.dtype)
    dx = np.zeros_like(x)
    dh = np.zeros((n, d), dtype=x.dtype)
    dc = np.zeros((n, d), dtype=x.dtype)
    for t in range(t_len - 1, -1, -1):
        dh_t = dh + dh_out[:, t, :]
        gi = gates[:, t, :d]
        gf = gates[:, t, d:2 * d]
        gg = gates[:, t, 2 * d:3 * d]
        go = gates[:, t, 3 * d:]
        c = c_all[:, t, :]
        tc = np.tanh(c)
        do = dh_t * tc
        dc = dc + dh_t * go * (1.0 - tc * tc)
        di = dc * gg
        dg = dc * gi
        if t > 0:
            c_prev = c_all[:, t - 1, :]
            h_prev = h_all[:, t - 1, :]
        else:
            c_prev = np.zeros((n, d), dtype=x.dtype)
            h_prev = np.zeros((n, d), dtype=x.dtype)
        df = dc * c_prev
        dz = np.zeros((n, 4 * d), dtype=x.dtype)
        dz[:, :d] = di * gi * (1.0 - gi)
        dz[:, d:2 * d] = df * gf * (1.0 - gf)
        dz[:, 2 * d:3 * d] = dg * (1.0 - gg * gg)
        dz[:, 3 * d:] = do * go * (1.0 - go)
        xt = x[:, t, :]
        dwx += xt.T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ wx.T
        dh = dz @ wh.T
        dc = dc * gf
    return dwx, dwh, db, dx


def gru_forward(x, wxg, whg, bg, wxn, whn, bn):
    n, t_len, _ = x.shape
    d = whn.shape[0]
    gates = np.zeros((n, t_len, 3 * d), dtype=x.dtype)   # [z, r, n]
    h_all = np.zeros((n, t_len, d), dtype=x.dtype)
    h = np.zeros((n, d), dtype=x.dtype)
    for t in range(t_len):
        xt = x[:, t, :]
        zg = xt @ wxg + h @ whg + bg
        gz = 1.0 / (1.0 + np.exp(-zg[:, :d]))
        gr = 1.0 / (1.0 + np.exp(-zg[:, d:]))
        gn = np.tanh(xt @ wxn + (gr * h) @ whn + bn)
        h = (1.0 - gz) * gn + gz * h
        gates[:, t, :d] = gz
        gates[:, t, d:2 * d] = gr
        gates[:, t, 2 * d:] = gn
        h_all[:, t, :] = h
    return gates, h_all


def gru_backward(x, wxg, whg, wxn, whn, gates, h_all, dh_out):
    n, t_len, _ = x.shape
    d = whn.shape[0]
    dwxg = np.zeros_like(wxg)
    dwhg = np.zeros_like(whg)
    dbg = np.zeros(2 * d, dtype=x.dtype)
    dwxn = np.zeros_like(wxn)
    dwhn = np.zeros_like(whn)
    dbn = np.zeros(d, dtype=x.dtype)
    dx = np.zeros_like(x)
    dh = np.zeros((n, d), dtype=x.dtype)
    for t in range(t_len - 1, -1, -1):
        dh_t = dh + dh_out[:, t, :]
        gz = gates[:, t, :d]
        gr = gates[:, t, d:2 * d]
        gn = gates[:, t, 2 * d:]
        if t > 0:
            h_prev = h_all[:, t - 1, :]
        else:
            h_prev = np.zeros((n, d), dtype=x.dtype)
        dz_gate = dh_t * (h_prev - gn)
        dn = dh_t * (1.0 - gz)
        dh_prev = dh_t * gz
        d_pre_n = dn * (1.0 - gn * gn)
        xt = x[:, t, :]
        dwxn += xt.T @ d_pre_n
        dwhn += (gr * h_prev).T @ d_pre_n
        dbn += d_pre_n.sum(axis=0)
        d_rh = d_pre_n @ whn.T
        dr = d_rh * h_prev
        dh_prev = dh_prev + d_rh * gr
        dzg = np.zeros((n, 2 * d), dtype=x.dtype)
        dzg[:, :d] = dz_gate * gz * (1.0 - gz)
        dzg[:, d:] = dr * gr * (1.0 - gr)
        dwxg += xt.T @ dzg
        dwhg += h_prev.T @ dzg
        dbg += dzg.sum(axis=0)
        dh_prev = dh_prev + dzg @ whg.T
        dx[:, t, :] = dzg @ wxg.T + d_pre_n @ wxn.T
        dh = dh_prev
    return dwxg, dwhg, dbg, dwxn, dwhn, dbn, dx


class RecurrentPredictor(Predictor):
    """One- or two-layer gated recurrence over the lookback window; the final
    hidden state feeds a linear head."""

    def __init__(self, config: PredictorConfig, draw: bool = True):
        self.n_layers = 2 if config.kind == "stacked_lstm" else 1
        super().__init__(config, draw)

    def init_params(self, rng):
        d = self.config.hidden_width
        params = {}
        for layer in range(self.n_layers):
            i_dim = 1 if layer == 0 else d
            if self.config.kind == "gru":
                params[f"l{layer}_Wxg"] = uniform_init(rng, (i_dim, 2 * d), d)
                params[f"l{layer}_Whg"] = uniform_init(rng, (d, 2 * d), d)
                params[f"l{layer}_bg"] = np.zeros(2 * d)
                params[f"l{layer}_Wxn"] = uniform_init(rng, (i_dim, d), d)
                params[f"l{layer}_Whn"] = uniform_init(rng, (d, d), d)
                params[f"l{layer}_bn"] = np.zeros(d)
            else:
                params[f"l{layer}_Wx"] = uniform_init(rng, (i_dim, 4 * d), d)
                params[f"l{layer}_Wh"] = uniform_init(rng, (d, 4 * d), d)
                params[f"l{layer}_b"] = np.zeros(4 * d)
        params["head_W"] = uniform_init(rng, (d, 1), d)
        params["head_b"] = np.zeros(1)
        return params

    def _forward(self, params, inputs):
        x = inputs[:, :, None]
        layer_caches = []
        for layer in range(self.n_layers):
            if self.config.kind == "gru":
                gates, h_all = gru_forward(
                    x,
                    params[f"l{layer}_Wxg"], params[f"l{layer}_Whg"], params[f"l{layer}_bg"],
                    params[f"l{layer}_Wxn"], params[f"l{layer}_Whn"], params[f"l{layer}_bn"],
                )
                layer_caches.append((x, gates, None, h_all))
            else:
                gates, c_all, h_all = lstm_forward(
                    x, params[f"l{layer}_Wx"], params[f"l{layer}_Wh"], params[f"l{layer}_b"]
                )
                layer_caches.append((x, gates, c_all, h_all))
            x = h_all
        final_h = x[:, -1, :]
        pred = (final_h @ params["head_W"] + params["head_b"])[:, 0]
        return pred, (layer_caches, final_h)

    def _backward(self, params, cache, d_pred):
        layer_caches, final_h = cache
        grads = {}
        d_out = d_pred[:, None]
        grads["head_W"] = final_h.T @ d_out
        grads["head_b"] = d_out.sum(axis=0)
        n, t_len = layer_caches[0][0].shape[:2]
        d = self.config.hidden_width
        dh_out = np.zeros((n, t_len, d), dtype=d_pred.dtype)
        dh_out[:, -1, :] = d_out @ params["head_W"].T
        for layer in range(self.n_layers - 1, -1, -1):
            x, gates, c_all, h_all = layer_caches[layer]
            if self.config.kind == "gru":
                dwxg, dwhg, dbg, dwxn, dwhn, dbn, dx = gru_backward(
                    x, params[f"l{layer}_Wxg"], params[f"l{layer}_Whg"],
                    params[f"l{layer}_Wxn"], params[f"l{layer}_Whn"],
                    gates, h_all, dh_out,
                )
                grads[f"l{layer}_Wxg"] = dwxg
                grads[f"l{layer}_Whg"] = dwhg
                grads[f"l{layer}_bg"] = dbg
                grads[f"l{layer}_Wxn"] = dwxn
                grads[f"l{layer}_Whn"] = dwhn
                grads[f"l{layer}_bn"] = dbn
            else:
                dwx, dwh, db, dx = lstm_backward(
                    x, params[f"l{layer}_Wx"], params[f"l{layer}_Wh"],
                    gates, c_all, h_all, dh_out,
                )
                grads[f"l{layer}_Wx"] = dwx
                grads[f"l{layer}_Wh"] = dwh
                grads[f"l{layer}_b"] = db
            dh_out = dx
        return grads

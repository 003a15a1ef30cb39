"""LSTM / GRU / stacked-LSTM predictors.

Activations are stored time-major: the hidden and cell states `(t, n, d)`,
and the gates `(t, k, n, d)`, each step's k gates one contiguous (n, d) block
after another. Each kernel takes every step's input term as one product before
its time loop, and the loop keeps only the recurrence: in the forward the
hidden-state product, the gate activations (written in place into the gate
buffer) and the state update; in the backward the hidden and cell gradients
and the products with the recurrent weights. The backward computes each step's
gate-derivative coefficients for all steps at once before its loop, one
contiguous (t, n, d) block per gate, and forms the input-weight,
recurrent-weight, bias and input gradients after it as one product each over
the contiguous `(t·n, k·d)` gate gradients, after Appleyard et al. 2016,
"Optimizing Performance of Recurrent Neural Networks on GPUs"
(arXiv:1604.01946).

The LSTM forward activates all four gates with one tanh: it halves the i, f
and o columns of its weights and bias on entry (exact, as a power of two) and
takes those gates as `tanh(u/2)·½ + ½`, the logistic sigmoid of u; the
backward reads only the activations, so it is unchanged. The GRU keeps
`1 / (1 + exp(-u))`.

Layer 0 has one input feature, so its hoisted input product is exact and its
forward gives the bits of the per-step form in tests/oracles.py, the LSTM's
gates by that form's one-tanh sigmoid. The one-tanh sigmoid rounds otherwise
than the exp form, and the gradients and the forward of a stacked LSTM's
upper layer sum and multiply in another order, all within the tolerance
tests/test_models.py states against the per-step exp form. Gradients are exact
BPTT and covered by finite-difference checks. Every buffer takes the dtype of
the input, so a float32 training step stays float32.
"""

from __future__ import annotations

import numpy as np

from .base import Predictor, PredictorConfig, _flat, _sum_rows, uniform_init


def lstm_forward(x, wx, wh, b):
    """(gates, c_all, tc_all, h_all) of an LSTM over the time-major input `x`
    (t, n, i): the gate activations [i, f, g, o] (t, 4, n, d), and the cell
    states, their tanh and the hidden states (t, n, d)."""
    t_len, n, _ = x.shape
    d = wh.shape[0]
    # sigmoid(u) = tanh(u/2)/2 + 1/2: halve the sigmoid gates' pre-activations
    # through their weights, so that one tanh activates all four gates
    half = np.full(4 * d, 0.5, dtype=wh.dtype)
    half[2 * d:3 * d] = 1.0
    wx, wh, b = wx * half, wh * half, b * half
    gates = _input_product(x, wx, 4)
    bias = _gate_major_bias(b, n, d)
    c_all = np.empty((t_len, n, d), dtype=x.dtype)
    tc_all = np.empty_like(c_all)
    h_all = np.empty_like(c_all)
    h = c = np.zeros((n, d), dtype=x.dtype)
    rec = np.empty((n, 4 * d), dtype=x.dtype)
    rec_gates = _gate_view(rec, 4)
    ig = np.empty((n, d), dtype=x.dtype)
    for t in range(t_len):
        z = gates[t]
        np.matmul(h, wh, out=rec)
        z += rec_gates
        z += bias
        np.tanh(z, out=z)
        gi, gf, gg, go = z
        if_gates = z[:2]
        if_gates *= 0.5
        if_gates += 0.5
        go *= 0.5
        go += 0.5
        c = np.multiply(gf, c, out=c_all[t])
        c += np.multiply(gi, gg, out=ig)
        np.tanh(c, out=tc_all[t])
        h = np.multiply(go, tc_all[t], out=h_all[t])
    return gates, c_all, tc_all, h_all


def lstm_backward(x, states, dh_out, wx, wh, b):
    """(dwx, dwh, db, dx) of `lstm_forward`'s `states` = (gates, c_all,
    tc_all, h_all), given the loss gradient `dh_out` (t, n, d) of each step's
    hidden state; `b` is unused, taken to match the forward."""
    gates, c_all, tc_all, h_all = states
    t_len, n, _ = x.shape
    d = wh.shape[0]
    gi, gf, gg, go = gates.transpose(1, 0, 2, 3)
    # a step's cell gradient dc times the [f, i, f, g] coefficients gives the
    # cell gradient it passes back (dc * f) and the gate gradients dz of i, f
    # and g; its hidden gradient dh times the [o, cell] ones gives dz's o and
    # dh's term of dc. `work` holds one step's six products in that order.
    by_dc = np.empty((4, t_len, n, d), dtype=x.dtype)
    by_dh = np.empty((2, t_len, n, d), dtype=x.dtype)
    by_dc[0] = gf
    np.subtract(1.0, gi, out=by_dc[1])
    by_dc[1] *= gi
    by_dc[1] *= gg
    np.subtract(1.0, gf, out=by_dc[2])
    by_dc[2] *= gf
    by_dc[2, 0] = 0.0                        # the cell state before step 0 is 0
    by_dc[2, 1:] *= c_all[:-1]
    np.multiply(gg, gg, out=by_dc[3])
    np.subtract(1.0, by_dc[3], out=by_dc[3])
    by_dc[3] *= gi
    np.subtract(1.0, go, out=by_dh[0])
    by_dh[0] *= go
    by_dh[0] *= tc_all
    np.multiply(tc_all, tc_all, out=by_dh[1])
    np.subtract(1.0, by_dh[1], out=by_dh[1])
    by_dh[1] *= go

    dz = np.empty((t_len, n, 4 * d), dtype=x.dtype)     # [i, f, g, o], (n, 4d) a step
    work = np.empty((6, n, d), dtype=x.dtype)           # [dc * f, i, f, g, o, dh's term]
    dc = np.empty((n, d), dtype=x.dtype)
    wh_t = np.ascontiguousarray(wh.T)
    dh = dh_out[-1].copy()
    work[0] = 0.0
    for t in range(t_len - 1, -1, -1):
        np.multiply(by_dh[:, t], dh, out=work[4:])
        np.add(work[0], work[5], out=dc)
        np.multiply(by_dc[:, t], dc, out=work[:4])
        np.copyto(_gate_view(dz[t], 4), work[1:5])
        if t:
            np.matmul(dz[t], wh_t, out=dh)
            dh += dh_out[t - 1]
    dwx, db, dx = _input_grads(x, dz, wx)
    dwh = _flat(h_all[:-1]).T @ _flat(dz[1:])    # step t's dz meets step t - 1's h
    return dwx, dwh, db, dx


def gru_forward(x, wxg, whg, bg, wxn, whn, bn):
    """(gates, h_all) of a GRU over the time-major input `x` (t, n, i): the
    update, reset and candidate activations [z, r, n] (t, 3, n, d) and the
    hidden states (t, n, d)."""
    t_len, n, _ = x.shape
    d = whn.shape[0]
    gates = _input_product(x, np.concatenate((wxg, wxn), axis=1), 3)
    bias_g = _gate_major_bias(bg, n, d)
    bias_n = _gate_major_bias(bn, n, d)[0]
    h_all = np.empty((t_len, n, d), dtype=x.dtype)
    h = np.zeros((n, d), dtype=x.dtype)
    rec_g = np.empty((n, 2 * d), dtype=x.dtype)
    rec_g_gates = _gate_view(rec_g, 2)
    rec_n = np.empty((n, d), dtype=x.dtype)
    rh = np.empty((n, d), dtype=x.dtype)
    for t in range(t_len):
        zg = gates[t, :2]
        gz, gr, gn = gates[t]
        np.matmul(h, whg, out=rec_g)
        zg += rec_g_gates
        zg += bias_g
        _sigmoid(zg)
        gn += np.matmul(np.multiply(gr, h, out=rh), whn, out=rec_n)
        gn += bias_n
        np.tanh(gn, out=gn)
        kept = np.subtract(1.0, gz, out=rh)
        kept *= gn
        h = np.multiply(gz, h, out=h_all[t])
        h += kept
    return gates, h_all


def gru_backward(x, states, dh_out, wxg, whg, bg, wxn, whn, bn):
    """(dwxg, dwhg, dbg, dwxn, dwhn, dbn, dx) of `gru_forward`'s `states` =
    (gates, h_all), given the loss gradient `dh_out` (t, n, d) of each step's
    hidden state; `bg` and `bn` are unused, taken to match the forward."""
    gates, h_all = states
    t_len, n, _ = x.shape
    d = whn.shape[0]
    gz, gr, gn = gates.transpose(1, 0, 2, 3)
    h_prev = np.empty_like(h_all)
    h_prev[0] = 0.0
    h_prev[1:] = h_all[:-1]
    # a step's hidden gradient dh times the [z, r, n, carry] coefficients
    # gives the gate gradients dz of z and n and the hidden gradient it passes
    # back directly (dh * z); r's gradient is the reset product's gradient
    # d_rh times r's coefficient. `work` holds one step's four products.
    by_dh = np.empty((4, t_len, n, d), dtype=x.dtype)
    np.subtract(1.0, gz, out=by_dh[3])                  # 1 - z, for now
    np.subtract(h_prev, gn, out=by_dh[0])
    by_dh[0] *= gz
    by_dh[0] *= by_dh[3]
    np.subtract(1.0, gr, out=by_dh[1])
    by_dh[1] *= gr
    by_dh[1] *= h_prev
    np.multiply(gn, gn, out=by_dh[2])
    np.subtract(1.0, by_dh[2], out=by_dh[2])
    by_dh[2] *= by_dh[3]
    by_dh[3] = gz

    dz = np.empty((t_len, n, 3 * d), dtype=x.dtype)     # [z, r, n], (n, 3d) a step
    work = np.empty((4, n, d), dtype=x.dtype)           # [z, r, n, dh * z]
    d_rh = np.empty((n, d), dtype=x.dtype)
    rec = np.empty((n, d), dtype=x.dtype)
    whg_t, whn_t = np.ascontiguousarray(whg.T), np.ascontiguousarray(whn.T)
    dh = dh_out[-1].copy()
    for t in range(t_len - 1, -1, -1):
        np.multiply(by_dh[:, t], dh, out=work)
        np.matmul(work[2], whn_t, out=d_rh)
        np.multiply(d_rh, by_dh[1, t], out=work[1])
        np.copyto(_gate_view(dz[t], 3), work[:3])
        if t:
            np.add(work[3], np.multiply(d_rh, gr[t], out=d_rh), out=dh)
            dh += np.matmul(dz[t, :, :2 * d], whg_t, out=rec)
            dh += dh_out[t - 1]
    dwx, db, dx = _input_grads(x, dz, np.concatenate((wxg, wxn), axis=1))
    dz_next = _flat(dz[1:])                  # step t's dz meets step t - 1's h
    dwhg = _flat(h_all[:-1]).T @ dz_next[:, :2 * d]
    h_prev *= gr
    dwhn = _flat(h_prev[1:]).T @ dz_next[:, 2 * d:]
    return dwx[:, :2 * d], dwhg, db[:2 * d], dwx[:, 2 * d:], dwhn, db[2 * d:], dx


def _input_grads(x, dz, wx):
    """(dwx, db, dx) from the gate gradients `dz` (t, n, k·d) of all steps,
    one product each."""
    dz_flat = _flat(dz)
    dwx = _flat(x).T @ dz_flat
    db = _sum_rows(dz_flat)
    dx = (dz_flat @ wx.T).reshape(x.shape)
    return dwx, db, dx


def _sigmoid(z):
    """`1 / (1 + exp(-z))` in place, by those four operations."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def _gate_view(rows, k):
    """The (n, k·d) rows as a (k, n, d) view, gate by gate."""
    n, width = rows.shape
    return rows.reshape(n, k, width // k).transpose(1, 0, 2)


def _gate_major_bias(b, n, d):
    """The bias `b` (k·d) of k gates repeated for n rows, gate by gate, (k, n,
    d), so that adding it to a step's gates reads contiguous memory."""
    return np.broadcast_to(b.reshape(-1, 1, d), (b.size // d, n, d)).copy()


def _input_product(x, w, k):
    """`x @ w` of the time-major input `x` (t, n, i) for k gates, as one
    product laid out gate-major, a contiguous (t, k, n, d). With one input
    feature each entry is one exact product, which a broadcast multiply forms
    several times faster than matmul's own loop."""
    t_len, n, i_dim = x.shape
    if i_dim == 1:
        return np.multiply(x[:, None], w.reshape(k, 1, -1), order="C")
    rows = (_flat(x) @ w).reshape(t_len, n, k, w.shape[1] // k)
    return np.ascontiguousarray(rows.transpose(0, 2, 1, 3))


KERNELS = {
    "lstm": (lstm_forward, lstm_backward, ("Wx", "Wh", "b")),
    "gru": (gru_forward, gru_backward, ("Wxg", "Whg", "bg", "Wxn", "Whn", "bn")),
}


class RecurrentPredictor(Predictor):
    """One- or two-layer gated recurrence over the lookback window; the final
    hidden state feeds a linear head."""

    def __init__(self, config: PredictorConfig, draw: bool = True):
        self.n_layers = 2 if config.kind == "stacked_lstm" else 1
        self.forward_kernel, self.backward_kernel, self.weight_names = KERNELS[
            "gru" if config.kind == "gru" else "lstm"]
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

    def _layer_weights(self, params, layer):
        return [params[f"l{layer}_{name}"] for name in self.weight_names]

    def _forward(self, params, inputs):
        x = inputs.T[:, :, None]                # time-major: (t, n, 1)
        layer_caches = []
        for layer in range(self.n_layers):
            states = self.forward_kernel(x, *self._layer_weights(params, layer))
            layer_caches.append((x, states))
            x = states[-1]                      # the hidden states
        final_h = x[-1]
        pred = (final_h @ params["head_W"] + params["head_b"])[:, 0]
        return pred, (layer_caches, final_h)

    def _backward(self, params, cache, d_pred):
        layer_caches, final_h = cache
        grads = {}
        d_out = d_pred[:, None]
        grads["head_W"] = final_h.T @ d_out
        grads["head_b"] = d_out.sum(axis=0)
        t_len, n = layer_caches[0][0].shape[:2]
        dh_out = np.zeros((t_len, n, self.config.hidden_width), dtype=d_pred.dtype)
        dh_out[-1] = d_out @ params["head_W"].T
        for layer in range(self.n_layers - 1, -1, -1):
            x, states = layer_caches[layer]
            *layer_grads, dh_out = self.backward_kernel(
                x, states, dh_out, *self._layer_weights(params, layer))
            for name, grad in zip(self.weight_names, layer_grads):
                grads[f"l{layer}_{name}"] = grad
        return grads

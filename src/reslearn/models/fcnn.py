"""Fully connected residual learner: window -> two ReLU layers -> scalar."""

from __future__ import annotations

import numpy as np

from .base import Predictor, uniform_init


class FCNNPredictor(Predictor):
    def init_params(self, rng):
        w = self.config.lookback
        d = self.config.hidden_width
        return {
            "W1": uniform_init(rng, (w, d), w),
            "b1": np.zeros(d),
            "W2": uniform_init(rng, (d, d), d),
            "b2": np.zeros(d),
            "W3": uniform_init(rng, (d, 1), d),
            "b3": np.zeros(1),
        }

    def _forward(self, params, inputs):
        z1 = inputs @ params["W1"] + params["b1"]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ params["W2"] + params["b2"]
        a2 = np.maximum(z2, 0.0)
        pred = (a2 @ params["W3"] + params["b3"])[:, 0]
        return pred, (inputs, z1, a1, z2, a2)

    def _backward(self, params, cache, d_pred):
        inputs, z1, a1, z2, a2 = cache
        d_out = d_pred[:, None]
        grads = {
            "W3": a2.T @ d_out,
            "b3": d_out.sum(axis=0),
        }
        d_a2 = d_out @ params["W3"].T
        d_z2 = d_a2 * (z2 > 0)
        grads["W2"] = a1.T @ d_z2
        grads["b2"] = d_z2.sum(axis=0)
        d_a1 = d_z2 @ params["W2"].T
        d_z1 = d_a1 * (z1 > 0)
        grads["W1"] = inputs.T @ d_z1
        grads["b1"] = d_z1.sum(axis=0)
        return grads

"""Predictor interface: seeded init, Adam training loop with early stopping.

Each predictor keeps its weights in one float64 vector, `flat`; `params` maps
each weight's name to a reshaped view of its slice, so the layers read named
arrays while Adam, the best-epoch snapshot and the gradient checks work on the
one vector. Checkpoints are written by residual.save_reslearn.

Every forward runs in float32 compute over these float64 weights: a training
step, a validation pass and `predict` each copy `flat` into a float32 vector
laid out the same way and cast the windows to float32 once. Adam updates `flat`
in float64, and the losses, early stopping and the predictions `predict`
returns are float64.

A model computes on one thread; `residual.forecast` cuts `evaluate`'s windows
into runs, one per process of `placement.spread`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, InputOverflow, NonFiniteLoss, ShapeMismatch

# Inference runs over blocks of this many windows, so its memory is bounded by
# one block's layer caches rather than by the number of windows. At 32 windows
# a transformer block's activations (32 x 32 x 64 float32, 0.25 MB each) stay in
# L2; float32 blocks of 48 and 64 were not faster. The block bounds depend only
# on the number of windows, so the bits never depend on the worker count. BLAS
# may compute a row of a product by a different kernel depending on its place in
# the row tiling: with OpenBLAS 0.3.31's AVX-512 kernels, blocks that start on a
# tile edge (a multiple of 16; a block of 30 changed bits and one of 20 did not)
# keep `predict` bit-identical to one whole-batch forward, and with its Haswell
# kernels `predict` differs from it in the last float32 digits.
PREDICT_BLOCK = 32

# Adam walks the weights in chunks of this many, so its two float64 work
# vectors are one chunk long (64 kB each) instead of as long as `flat`.
ADAM_CHUNK = 8192

KINDS = ("transformer", "lstm", "gru", "stacked_lstm", "fcnn")


@dataclass(frozen=True)
class PredictorConfig:
    kind: str
    lookback: int = 32
    epochs: int = 300
    hidden_width: int = 64
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    ffn_width: int = 128
    learning_rate: float = 1e-3
    batch_size: int = 32
    early_stop_patience: int = 10
    early_stop_min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("lookback", "hidden_width", "d_model", "n_heads", "n_layers",
                     "ffn_width", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        # each message names the experiment config key; with a nan min_delta
        # no epoch would be an improvement, and a nan step makes every weight nan
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if self.early_stop_patience < 1:
            raise ConfigError("patience must be >= 1")
        if not (math.isfinite(self.early_stop_min_delta) and self.early_stop_min_delta >= 0):
            raise ConfigError("min_delta must be finite and >= 0")


@dataclass
class TrainTrace:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def block_bounds(n: int, size: int) -> list[int]:
    """[0, size, 2 size, ..., n]: `n` windows cut every `size`, with a
    one-window remainder joined to the block before it, as a one-row matrix
    product takes a different BLAS path (see PREDICT_BLOCK)."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def uniform_init(rng: np.random.Generator | None, shape: tuple[int, ...],
                 fan_in: int) -> np.ndarray:
    """Weights drawn uniformly within 1/sqrt(fan_in) of 0; zeros without a
    generator, for weights that are overwritten next."""
    if rng is None:
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Predictor:
    """Common machinery; subclasses supply init_params / _forward / _backward."""

    def __init__(self, config: PredictorConfig, draw: bool = True):
        """Weights drawn from `config.seed`; with `draw` false, zero weights
        that the caller overwrites (a loaded or unpickled model), laid out by
        the same `init_params` without importing or running numpy's generator."""
        self.config = config
        init = self.init_params(np.random.default_rng(config.seed) if draw else None)
        self.flat = np.concatenate([v.ravel() for v in init.values()])
        self.params = _views(self.flat, init)

    # Pickling (the models that training workers send back) keeps the config
    # and the one vector; unpickling lays out the views again.
    def __getstate__(self):
        return {"config": self.config, "flat": self.flat}

    def __setstate__(self, state):
        self.__init__(state["config"], draw=False)
        self.flat[...] = state["flat"]

    # --- subclass surface ---

    def init_params(self, rng: np.random.Generator | None) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _forward(self, params: dict, inputs: np.ndarray):
        """Return (predictions (n,), cache)."""
        raise NotImplementedError

    def _backward(self, params: dict, cache, d_pred: np.ndarray) -> dict:
        """Return gradients keyed like params. `cache` is the one `_forward`
        returned; a subclass may consume it (the transformer's does), so each
        cache serves one backward only."""
        raise NotImplementedError

    # --- shared behaviour ---

    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        """The windows as float32, the compute dtype of every forward. A value
        beyond the float32 range raises InputOverflow."""
        try:
            with np.errstate(over="raise"):
                inputs = np.asarray(inputs, dtype=np.float32)
        except FloatingPointError:
            raise InputOverflow("a window value overflows float32: it lies far beyond "
                                "the training range (past 3.4e38 in scaled units)") from None
        if inputs.ndim != 2 or inputs.shape[1] != self.config.lookback:
            raise ShapeMismatch(
                f"expected (n, {self.config.lookback}) windows, got {inputs.shape}"
            )
        return inputs

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """float64 predictions of a float32 forward over a copy of `flat`."""
        params = _views(self.flat.astype(np.float32), self.params)
        return self._forward_blocks(self._check_inputs(inputs), params)

    def _forward_blocks(self, inputs: np.ndarray, params: dict) -> np.ndarray:
        """Predictions of `_forward` over the blocks of `block_bounds(n,
        PREDICT_BLOCK)`, widened to float64, each block's cache dropped once
        its predictions are copied out."""
        bounds = block_bounds(inputs.shape[0], PREDICT_BLOCK)
        out = np.empty(inputs.shape[0])
        for start, stop in zip(bounds, bounds[1:]):
            out[start:stop] = self._forward(params, inputs[start:stop])[0]
        return out

    def loss_and_grad(self, inputs: np.ndarray, targets: np.ndarray, params: dict | None = None):
        """MSE loss and its gradient as one vector laid out like `flat`, in the
        dtype of `inputs` and `params` (default: the model's own)."""
        if params is None:
            params = self.params
        pred, cache = self._forward(params, inputs)
        diff = pred - targets
        loss = float(np.mean(diff ** 2))
        d_pred = 2.0 * diff / diff.size
        grads = self._backward(params, cache, d_pred)
        return loss, np.concatenate([grads[k].ravel() for k in params])

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        val_inputs: np.ndarray,
        val_targets: np.ndarray,
    ) -> TrainTrace:
        """Mini-batch Adam on MSE with patience-based early stopping; the
        best-validation parameters are restored on exit. The first epoch
        always counts as an improvement, since min_delta is finite."""
        cfg = self.config
        inputs = self._check_inputs(inputs)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (inputs.shape[0],):
            raise ShapeMismatch(f"targets {targets.shape} vs inputs {inputs.shape}")
        val_inputs = self._check_inputs(val_inputs)
        val_targets = np.asarray(val_targets, dtype=np.float64)

        trace = TrainTrace()
        if cfg.epochs == 0:
            return trace
        targets32 = targets.astype(np.float32)
        work = np.empty(self.flat.size, dtype=np.float32)
        work_params = _views(work, self.params)

        rng = np.random.default_rng(cfg.seed + 1)
        adam_m = np.zeros_like(self.flat)
        adam_v = np.zeros_like(self.flat)
        grad = np.empty(min(ADAM_CHUNK, self.flat.size))     # Adam's two work vectors
        term = np.empty_like(grad)
        step = 0
        best_val = np.inf
        stall = 0
        n = inputs.shape[0]

        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                work[...] = self.flat
                loss, g = self.loss_and_grad(inputs[idx], targets32[idx], params=work_params)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"diverged at epoch {epoch}; last finite epochs: {trace.train_loss}"
                    )
                epoch_loss += loss * idx.size
                step += 1
                _adam_step(self.flat, g, adam_m, adam_v, grad, term, step, cfg.learning_rate)
            trace.train_loss.append(epoch_loss / n)

            work[...] = self.flat
            val_pred = self._forward_blocks(val_inputs, work_params)
            try:
                with np.errstate(over="raise"):
                    val_loss = float(np.mean((val_pred - val_targets) ** 2))
            except FloatingPointError:
                raise NonFiniteLoss(f"validation loss overflows float64 at epoch {epoch}: "
                                    "a validation target lies far beyond the training "
                                    "range") from None
            if not np.isfinite(val_loss):
                raise NonFiniteLoss(f"validation loss diverged at epoch {epoch}")
            trace.val_loss.append(val_loss)
            if val_loss < best_val - cfg.early_stop_min_delta:
                best_val = val_loss
                best_params = self.flat.copy()
                trace.best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall >= cfg.early_stop_patience:
                    break
        self.flat[...] = best_params
        return trace


def _adam_step(flat, g, m, v, grad, term, step, lr):
    """One Adam step on `flat` from the gradient `g`, in place in the moments
    `m` and `v`, all laid out like `flat`, a chunk of ADAM_CHUNK weights at a
    time through the chunk-long float64 work vectors `grad` and `term`. Each
    operation is one of `m = beta1 * m + (1 - beta1) * g`, `v = beta2 * v + (1 -
    beta2) * g * g` and `flat -= lr * m_hat / (sqrt(v_hat) + eps)`, in their
    order; a float product or sum commutes exactly, so the bits are theirs."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_scale, v_scale = 1 - beta1 ** step, 1 - beta2 ** step
    for start in range(0, flat.size, ADAM_CHUNK):
        stop = min(start + ADAM_CHUNK, flat.size)
        gc, tc = grad[:stop - start], term[:stop - start]
        mc, vc = m[start:stop], v[start:stop]
        gc[...] = g[start:stop]                    # widened from float32
        mc *= beta1
        np.multiply(gc, 1 - beta1, out=tc)
        mc += tc
        vc *= beta2
        np.multiply(gc, 1 - beta2, out=tc)
        tc *= gc
        vc += tc
        np.divide(mc, m_scale, out=gc)             # gc now holds the step
        gc *= lr
        np.divide(vc, v_scale, out=tc)
        np.sqrt(tc, out=tc)
        tc += eps
        gc /= tc
        flat[start:stop] -= gc


def _flat(x):
    """`x` as a 2-D array of its rows over the last axis."""
    return x.reshape(-1, x.shape[-1])


def _sum_rows(x):
    """The sum of the rows of `x` over its last axis (`x.sum(axis=(0, 1))` of a
    3-D `x`), as one product of a ones vector with them: numpy's own sum adds
    the rows one at a time."""
    rows = _flat(x)
    return np.ones(rows.shape[0], dtype=x.dtype) @ rows


def _views(vector: np.ndarray, shapes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into `vector`, one per entry of `shapes` and shaped like it,
    tiling the vector in order."""
    views, offset = {}, 0
    for k, v in shapes.items():
        views[k] = vector[offset:offset + v.size].reshape(v.shape)
        offset += v.size
    return views

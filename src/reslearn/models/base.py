"""Predictor interface: seeded init, Adam training loop with early stopping,
and flat-parameter access for gradient checks. Checkpoints are written by
residual.save_reslearn."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BadConfig, NonFiniteLoss, ShapeMismatch

# Inference runs over blocks of this many windows, so its memory is bounded by
# one block's layer caches rather than by the number of windows.
PREDICT_BLOCK = 256

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
            raise BadConfig(f"unknown model kind {self.kind!r}")
        if self.d_model % self.n_heads != 0:
            raise BadConfig(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("lookback", "hidden_width", "d_model", "n_heads", "n_layers",
                     "ffn_width", "batch_size"):
            if getattr(self, name) < 1:
                raise BadConfig(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise BadConfig("learning_rate must be positive")
        if self.epochs < 0:
            raise BadConfig("epochs must be >= 0")


@dataclass
class TrainTrace:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Predictor:
    """Common machinery; subclasses supply init_params / _forward / _backward."""

    def __init__(self, config: PredictorConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, np.ndarray] = self.init_params(rng)

    # --- subclass surface ---

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _forward(self, params: dict, inputs: np.ndarray):
        """Return (predictions (n,), cache)."""
        raise NotImplementedError

    def _backward(self, params: dict, cache, d_pred: np.ndarray) -> dict:
        """Return gradients keyed like params."""
        raise NotImplementedError

    # --- shared behaviour ---

    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.config.lookback:
            raise ShapeMismatch(
                f"expected (n, {self.config.lookback}) windows, got {inputs.shape}"
            )
        return inputs

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self._forward_blocks(self._check_inputs(inputs))

    def _forward_blocks(self, inputs: np.ndarray) -> np.ndarray:
        """Predictions of `_forward` block by block, each block's cache dropped
        once its predictions are copied out. Blocks start at multiples of
        PREDICT_BLOCK and a one-window remainder joins the block before it: a
        one-row matrix product takes a different BLAS path, so this keeps the
        result bit-identical to one forward over the whole input."""
        n = inputs.shape[0]
        bounds = list(range(0, n, PREDICT_BLOCK)) + [n]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        out = np.empty(n)
        for start, stop in zip(bounds, bounds[1:]):
            out[start:stop] = self._forward(self.params, inputs[start:stop])[0]
        return out

    def loss_and_grad(self, inputs: np.ndarray, targets: np.ndarray):
        pred, cache = self._forward(self.params, inputs)
        diff = pred - targets
        loss = float(np.mean(diff ** 2))
        d_pred = 2.0 * diff / diff.size
        grads = self._backward(self.params, cache, d_pred)
        return loss, grads

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        val_inputs: np.ndarray | None = None,
        val_targets: np.ndarray | None = None,
    ) -> TrainTrace:
        """Mini-batch Adam on MSE with patience-based early stopping; the
        best-validation parameters are restored on exit."""
        cfg = self.config
        inputs = self._check_inputs(inputs)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (inputs.shape[0],):
            raise ShapeMismatch(f"targets {targets.shape} vs inputs {inputs.shape}")
        has_val = val_inputs is not None and val_targets is not None
        if has_val:
            val_inputs = self._check_inputs(val_inputs)
            val_targets = np.asarray(val_targets, dtype=np.float64)

        trace = TrainTrace()
        if cfg.epochs == 0:
            return trace

        rng = np.random.default_rng(cfg.seed + 1)
        adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        step = 0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        best_val = np.inf
        best_params = None
        stall = 0
        n = inputs.shape[0]

        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss, grads = self.loss_and_grad(inputs[idx], targets[idx])
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"diverged at epoch {epoch}; last finite epochs: {trace.train_loss}"
                    )
                epoch_loss += loss * idx.size
                step += 1
                for k, g in grads.items():
                    adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
                    adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g * g
                    m_hat = adam_m[k] / (1 - beta1 ** step)
                    v_hat = adam_v[k] / (1 - beta2 ** step)
                    self.params[k] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            trace.train_loss.append(epoch_loss / n)

            if has_val:
                val_pred = self._forward_blocks(val_inputs)
                val_loss = float(np.mean((val_pred - val_targets) ** 2))
                if not np.isfinite(val_loss):
                    raise NonFiniteLoss(f"validation loss diverged at epoch {epoch}")
                trace.val_loss.append(val_loss)
                if val_loss < best_val - cfg.early_stop_min_delta:
                    best_val = val_loss
                    best_params = {k: v.copy() for k, v in self.params.items()}
                    trace.best_epoch = epoch
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.early_stop_patience:
                        break
        if has_val and best_params is not None:
            self.params = best_params
        return trace

    # --- flat parameter view (gradient checks) ---

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for k in sorted(self.params):
            size = self.params[k].size
            self.params[k] = flat[offset:offset + size].reshape(self.params[k].shape).copy()
            offset += size
        if offset != flat.size:
            raise ShapeMismatch(f"flat vector has {flat.size} entries, expected {offset}")

    def flat_grad(self, grads: dict) -> np.ndarray:
        return np.concatenate([grads[k].ravel() for k in sorted(grads)])

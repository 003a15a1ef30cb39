"""Trainable sequence predictors behind one interface."""

from .base import KINDS, Predictor, PredictorConfig, TrainTrace
from .fcnn import FCNNPredictor
from .recurrent import RecurrentPredictor
from .transformer import TransformerPredictor

__all__ = [
    "KINDS",
    "Predictor",
    "PredictorConfig",
    "TrainTrace",
    "build_predictor",
]


def build_predictor(config: PredictorConfig, draw: bool = True) -> Predictor:
    """A predictor of `config.kind`; see Predictor for `draw`."""
    if config.kind == "transformer":
        return TransformerPredictor(config, draw)
    if config.kind in ("lstm", "gru", "stacked_lstm"):
        return RecurrentPredictor(config, draw)
    return FCNNPredictor(config, draw)

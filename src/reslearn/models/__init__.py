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


def build_predictor(config: PredictorConfig) -> Predictor:
    if config.kind == "transformer":
        return TransformerPredictor(config)
    if config.kind in ("lstm", "gru", "stacked_lstm"):
        return RecurrentPredictor(config)
    return FCNNPredictor(config)

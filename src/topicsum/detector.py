"""Paragraph topic classification.

A MeanEmbeddingEncoder turns a token-id sequence into a fixed-width
vector; a linear layer over that vector scores every topic plus NOISE.  The
encoder is a trainable mean-of-embeddings model, deliberately small.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import TopicParagraphExample

__all__ = [
    "MeanEmbeddingEncoder",
    "DetectorModel",
    "detect_topics",
    "train_detector",
    "evaluate_detector",
    "DetectorMetrics",
]

logger = logging.getLogger(__name__)


class MeanEmbeddingEncoder:
    """Mean of trainable token embeddings, then one affine + tanh layer.

    An empty paragraph encodes as tanh of the bias alone.
    """

    def __init__(self, vocab_size: int, embed_dim: int, output_dim: int,
                 rng: np.random.Generator):
        self.embed_dim = embed_dim
        self.output_dim = output_dim
        self.embed = ad.parameter(rng, (vocab_size, embed_dim))
        self.proj_W = ad.parameter(rng, (embed_dim, output_dim))
        self.proj_b = ad.zero_parameter((1, output_dim))

    def encode(self, token_ids: Sequence[int]) -> ad.Tensor:
        ids = list(token_ids)
        if not ids:
            mean = ad.zeros((1, self.embed_dim))
        else:
            vectors = ad.embedding_lookup(self.embed, ids)  # [n, embed_dim]
            weights = ad.Tensor(np.full((1, len(ids)), 1.0 / len(ids), dtype=ad.default_dtype()))
            mean = ad.matmul(weights, vectors)  # [1, embed_dim]
        return ad.tanh(ad.affine(mean, self.proj_W, self.proj_b))

    parameters = ad.parameters_of


class DetectorModel:
    """Encoder + linear classifier over topics (NOISE is the last index)."""

    def __init__(self, encoder: MeanEmbeddingEncoder, n_classes: int, rng: np.random.Generator):
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes (one topic + NOISE), got {n_classes}")
        self.encoder = encoder
        self.n_classes = n_classes
        self.cls_W = ad.parameter(rng, (encoder.output_dim, n_classes))
        self.cls_b = ad.zero_parameter((1, n_classes))

    def logits(self, token_ids: Sequence[int]) -> ad.Tensor:
        return ad.affine(self.encoder.encode(token_ids), self.cls_W, self.cls_b)

    parameters = ad.parameters_of


def detect_topics(paragraphs: Sequence[Sequence[int]], model: DetectorModel) -> list[int]:
    """Most-probable topic per paragraph; ties break to the lowest index."""
    return [int(np.argmax(model.logits(ids).data)) for ids in paragraphs]


def _example_nll(model: DetectorModel, example: TopicParagraphExample) -> ad.Tensor:
    probs = ad.softmax(model.logits(example.token_ids), axis=1)
    return ad.mul(ad.log(ad.pick(probs, 0, example.topic_index), floor=ad.LOG_FLOOR), -1.0)


def train_detector(model: DetectorModel, train: Sequence[TopicParagraphExample],
                   valid: Sequence[TopicParagraphExample], epochs: int = 4,
                   lr: float = 3e-5, seed: int = 42) -> list[dict]:
    """Adam on per-example NLL (`autodiff.fit`, which refuses an empty
    training set); keeps the best-validation checkpoint, or the lowest-loss
    one without a validation set.  Returns `fit`'s history rows: epoch, lr,
    train_loss, grad_norm, valid_accuracy, wall_seconds."""
    present = {ex.topic_index for ex in train}
    for topic in range(model.n_classes):
        if topic not in present:
            logger.warning("topic %d has no training examples", topic)

    def validate():
        if not valid:
            return {"valid_accuracy": float("nan")}, None
        accuracy = evaluate_detector(model, valid).accuracy
        return {"valid_accuracy": accuracy}, accuracy

    return ad.fit(model.parameters(), len(train),
                  lambda index: {"loss": _example_nll(model, train[index])}, validate,
                  label=lambda index: f"training example {index}",
                  epochs=epochs, lr=lambda epoch: lr, seed=seed)


@dataclass
class DetectorMetrics:
    accuracy: float
    n_examples: int


def evaluate_detector(model: DetectorModel,
                      examples: Sequence[TopicParagraphExample]) -> DetectorMetrics:
    """Share of `examples` whose `detect_topics` prediction is the gold topic."""
    if not examples:
        raise ValueError("empty evaluation set")
    predicted = detect_topics([example.token_ids for example in examples], model)
    correct = sum(guess == example.topic_index for guess, example in zip(predicted, examples))
    return DetectorMetrics(accuracy=correct / len(examples), n_examples=len(examples))

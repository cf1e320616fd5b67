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
from .fileio import atomic_write

__all__ = [
    "MeanEmbeddingEncoder",
    "DetectorModel",
    "detect_topics",
    "train_detector",
    "evaluate_detector",
    "DetectorMetrics",
    "TopicMetrics",
    "write_detector_report",
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
class TopicMetrics:
    topic_index: int
    precision: float
    recall: float
    support: int


@dataclass
class DetectorMetrics:
    accuracy: float
    per_topic: list[TopicMetrics]
    n_examples: int


def evaluate_detector(model: DetectorModel,
                      examples: Sequence[TopicParagraphExample]) -> DetectorMetrics:
    """Accuracy plus one-vs-rest precision/recall per topic."""
    if not examples:
        raise ValueError("empty evaluation set")
    n = model.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)  # [true, predicted]
    predicted = detect_topics([example.token_ids for example in examples], model)
    np.add.at(confusion, ([example.topic_index for example in examples], predicted), 1)
    accuracy = float(np.trace(confusion)) / len(examples)
    per_topic = []
    for topic in range(n):
        true_positive = int(confusion[topic, topic])
        predicted_count = int(confusion[:, topic].sum())
        support = int(confusion[topic, :].sum())
        precision = true_positive / predicted_count if predicted_count else 0.0
        recall = true_positive / support if support else 0.0
        per_topic.append(TopicMetrics(topic, precision, recall, support))
    return DetectorMetrics(accuracy=accuracy, per_topic=per_topic, n_examples=len(examples))


def write_detector_report(path, metrics: DetectorMetrics, topic_names: Sequence[str]) -> None:
    """Tab-separated per-topic rows plus an aggregate line."""
    if len(topic_names) != len(metrics.per_topic):
        raise ValueError(f"{len(topic_names)} topic names for {len(metrics.per_topic)} topics")
    with atomic_write(path) as handle:
        handle.write("topic\tprecision\trecall\tsupport\n")
        for name, row in zip(topic_names, metrics.per_topic):
            handle.write(f"{name}\t{row.precision:.6f}\t{row.recall:.6f}\t{row.support}\n")
        handle.write(f"ALL\taccuracy={metrics.accuracy:.6f}\t\t{metrics.n_examples}\n")

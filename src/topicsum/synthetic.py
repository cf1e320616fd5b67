"""Deterministic keyword-disjoint toy corpora for tests and demos.

Three topics with disjoint word banks make detection linearly separable
and give the generator an unambiguous paragraph-to-sentence mapping, so
overfit and accuracy suites have a known-good target.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (RawArticle, SummarizationExample, TopicSchema, Topic,
                     write_articles, write_summarization_dataset)
from .fileio import atomic_write
from .text import Vocabulary

__all__ = [
    "TOPIC_WORD_BANKS",
    "toy_schema",
    "toy_detector_articles",
    "ToyCorpus",
    "toy_summarization_corpus",
    "write_toy_workspace",
]

TOPIC_WORD_BANKS: dict[str, list[str]] = {
    "habitat": ["tundra", "glacier", "burrow", "forest", "meadow", "riverbank", "cliff", "marsh"],
    "diet": ["lemming", "berries", "insects", "carrion", "roots", "fish", "eggs", "seeds"],
    "appearance": ["fur", "whiskers", "paws", "tail", "coat", "muzzle", "ears", "stripe"],
}

_NOISE_TEXTS = [
    "this site uses cookie banners to track your visit",
    "accept our cookie policy before reading further",
    "broken href tag leads to an archived mirror",
]


def toy_schema() -> TopicSchema:
    """Three-topic schema whose labels equal the topic names."""
    topics = [Topic(name=name, labels=frozenset({name})) for name in TOPIC_WORD_BANKS]
    return TopicSchema(domain="toy", topics=topics)


def _paragraph_words(rng: np.random.Generator, bank: list[str], length: int) -> list[str]:
    return [bank[int(i)] for i in rng.integers(0, len(bank), size=length)]


def toy_detector_articles(n_articles: int = 60, seed: int = 0) -> list[RawArticle]:
    """Articles whose sections are pure single-topic paragraphs, plus noise
    paragraphs and an unallocated section label."""
    rng = np.random.default_rng(seed)
    names = list(TOPIC_WORD_BANKS)
    articles: list[RawArticle] = []
    for index in range(n_articles):
        sections: list[tuple[str, str]] = []
        for name in names:
            paragraphs = []
            for _ in range(2):
                paragraphs.append(" ".join(_paragraph_words(rng, TOPIC_WORD_BANKS[name], 12)))
            sections.append((name, "\n\n".join(paragraphs)))
        sections.append((names[index % len(names)],
                         _NOISE_TEXTS[index % len(_NOISE_TEXTS)]))
        sections.append(("references", "see the archived list of citations [ 3 ]"))
        articles.append(RawArticle(title=f"entity{index}", sections=tuple(sections)))
    return articles


@dataclass
class ToyCorpus:
    schema: TopicSchema
    vocab: Vocabulary
    examples: list[SummarizationExample]
    assignments: list[list[int]]  # gold topic index per paragraph


def toy_summarization_corpus(n_examples: int = 20, seed: int = 0) -> ToyCorpus:
    """Examples with one paragraph per present topic and one gold sentence
    per paragraph (its first words plus a period), in topic order."""
    rng = np.random.default_rng(seed)
    schema = toy_schema()
    names = list(TOPIC_WORD_BANKS)
    raw: list[tuple[str, list[list[str]], list[list[str]], list[int]]] = []
    for index in range(n_examples):
        entity = f"entity{index}"
        present = list(range(len(names))) if index % 2 == 0 else [0, 1 + index % 2]
        paragraphs: list[list[str]] = []
        sentences: list[list[str]] = []
        for topic in present:
            words = _paragraph_words(rng, TOPIC_WORD_BANKS[names[topic]], 5)
            paragraphs.append([entity] + words)
            sentences.append([entity, words[0], words[1], words[2], "."])
        raw.append((entity, paragraphs, sentences, list(present)))
    token_sequences = [seq for _, paragraphs, sentences, _ in raw
                       for seq in list(paragraphs) + list(sentences)]
    vocab = Vocabulary.build(token_sequences)
    examples = [
        SummarizationExample(
            title=title,
            paragraph_tokens=paragraphs,
            paragraph_ids=[vocab.encode(p) for p in paragraphs],
            abstract_tokens=sentences,
            abstract_ids=[vocab.encode(s) for s in sentences],
        )
        for title, paragraphs, sentences, _ in raw
    ]
    assignments = [assignment for _, _, _, assignment in raw]
    return ToyCorpus(schema=schema, vocab=vocab, examples=examples, assignments=assignments)


_TOY_SCHEMA_TEXT = """# toy three-topic schema
domain: toy
habitat: habitat
diet: diet
appearance: appearance
noise: /cookie/, /href/, /\\[\\s*\\d+\\s*\\]/
"""


def write_toy_workspace(directory, n_articles: int = 60, n_examples: int = 20,
                        seed: int = 0) -> dict[str, Path]:
    """Write articles, schema, and summarization files for CLI runs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "articles": directory / "articles.jsonl",
        "schema": directory / "schema.txt",
        "summ_train": directory / "summ_train.tsv",
        "summ_valid": directory / "summ_valid.tsv",
    }
    write_articles(paths["articles"], toy_detector_articles(n_articles, seed))
    with atomic_write(paths["schema"]) as handle:
        handle.write(_TOY_SCHEMA_TEXT)
    corpus = toy_summarization_corpus(n_examples, seed)
    split = max(1, n_examples - max(1, n_examples // 5))
    write_summarization_dataset(paths["summ_train"], corpus.examples[:split])
    write_summarization_dataset(paths["summ_valid"], corpus.examples[split:])
    return paths

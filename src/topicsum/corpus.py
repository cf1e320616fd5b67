"""Article ingestion, topic schemas, dataset construction, and corpus stats.

Articles arrive as JSON Lines, one object per line:

    {"title": "Arctic fox", "sections": [["Taxonomy", "..."], ...]}

A topic schema allocates section labels to topics; paragraphs whose text
matches a noise pattern are NOISE regardless of their label.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .fileio import atomic_write, read_lines
from .text import Vocabulary, split_sentences, tokenize

__all__ = [
    "RawArticle",
    "load_articles",
    "write_articles",
    "Topic",
    "TopicSchema",
    "DEFAULT_NOISE_PATTERNS",
    "load_topic_schema",
    "bundled_schema_path",
    "label_frequency_stats",
    "write_label_stats",
    "TopicParagraphExample",
    "DatasetSplits",
    "build_detector_dataset",
    "write_detector_dataset",
    "load_detector_dataset",
    "SummarizationExample",
    "PARAGRAPH_SEPARATOR",
    "SENTENCE_SEPARATOR",
    "abstract_sentences",
    "load_summarization_dataset",
    "write_summarization_dataset",
    "article_token_sequences",
]

logger = logging.getLogger(__name__)

TRAIN_BUCKETS = frozenset(range(8))  # 8:1:1 split over hash % 10
VALID_BUCKET = 8


# ---------------------------------------------------------------------------
# articles

_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


@dataclass(frozen=True)
class RawArticle:
    title: str
    sections: tuple[tuple[str, str], ...]  # (label, text) pairs in order


def load_articles(path) -> list[RawArticle]:
    articles: list[RawArticle] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict) or "title" not in obj or "sections" not in obj:
            raise ValueError(f"{path}:{lineno}: expected an object with 'title' and 'sections'")
        title = obj["title"]
        if not isinstance(title, str) or not title:
            raise ValueError(f"{path}:{lineno}: 'title' must be a non-empty string")
        if not isinstance(obj["sections"], list):
            raise ValueError(f"{path}:{lineno}: 'sections' must be a list of [label, text] pairs")
        sections = []
        for entry in obj["sections"]:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not isinstance(entry[0], str) or not entry[0]
                    or not isinstance(entry[1], str)):
                raise ValueError(f"{path}:{lineno}: each section must be a [label, text] pair")
            if "\t" in entry[0] or "\n" in entry[0] or "\r" in entry[0]:  # label_stats.tsv rows
                raise ValueError(f"{path}:{lineno}: section label {entry[0]!r} "
                                 "holds a tab or line break")
            sections.append((entry[0], entry[1]))
        # a decoded line holds no surrogate; only a JSON escape makes one
        if "\\u" in line:
            fields = [("'title'", title)]
            for label, text in sections:
                fields += [("a section label", label), ("a section text", text)]
            for name, value in fields:
                lone = _SURROGATE_RE.search(value)
                if lone:
                    raise ValueError(f"{path}:{lineno}: {name} holds a lone surrogate "
                                     f"{lone.group()!r}, which UTF-8 cannot encode")
        articles.append(RawArticle(title=title, sections=tuple(sections)))
    return articles


def write_articles(path, articles: Iterable[RawArticle]) -> None:
    with atomic_write(path) as handle:
        for article in articles:
            record = {"title": article.title,
                      "sections": [[label, text] for label, text in article.sections]}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# topic schema

DEFAULT_NOISE_PATTERNS = ("cookie", "href", r"\[\s*\d+\s*\]")


@dataclass
class Topic:
    name: str
    labels: frozenset[str]  # lowercased section labels


@dataclass
class TopicSchema:
    domain: str
    topics: list[Topic]
    noise_patterns: list[re.Pattern] = field(default_factory=list)

    def __post_init__(self):
        if not self.noise_patterns:
            self.noise_patterns = [re.compile(p, re.IGNORECASE) for p in DEFAULT_NOISE_PATTERNS]
        self._label_map: dict[str, int] = {}
        for index, topic in enumerate(self.topics):
            for label in topic.labels:
                key = label.lower()
                if key in self._label_map:
                    raise ValueError(f"label '{key}' allocated to more than one topic")
                self._label_map[key] = index

    @property
    def noise_index(self) -> int:
        return len(self.topics)

    @property
    def n_classes(self) -> int:
        """Topic count including NOISE (the detector's output width)."""
        return len(self.topics) + 1

    def topic_of_label(self, label: str) -> int | None:
        return self._label_map.get(label.strip().lower())

    def is_noise_text(self, text: str) -> bool:
        for pattern in self.noise_patterns:
            if pattern.search(text):
                return True
        return False

    def topic_names(self, include_noise: bool = False) -> list[str]:
        names = [t.name for t in self.topics]
        if include_noise:
            names.append("NOISE")
        return names


_NOISE_ENTRY_RE = re.compile(r"/((?:[^/\\]|\\.)*)/")
_TIER_RE = re.compile(r"^(.*)@(\d+)$")


def load_topic_schema(path, n_t: int = 20) -> TopicSchema:
    """Parse a topic-allocation file.

    One topic per line: "Name: label, other label@20, ...".  A label's
    optional "@tier" suffix names the label-frequency tier it belongs to;
    the label is kept iff tier <= n_t, which must be at least 0 (unmarked
    labels are always kept); the topics are the same at every tier.
    A "noise:" line lists one or more /regex/ patterns split by commas;
    absent, the default noise indicators apply.  An optional "domain:"
    line names the domain.  Topic names are distinct, ignoring case.
    """
    if n_t < 0:
        raise ValueError(f"'n_t' must be at least 0, got {n_t}")
    path = Path(path)
    domain = path.stem
    topics: list[Topic] = []
    noise_patterns: list[re.Pattern] = []
    seen_labels: dict[str, str] = {}
    named_on: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'name: ...', got '{line}'")
        name, _, payload = line.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"{path}:{lineno}: empty topic name")
        if name.lower() == "domain":
            domain = payload.strip()
            continue
        if name.lower() == "noise":
            sources = _NOISE_ENTRY_RE.findall(payload)
            gaps = _NOISE_ENTRY_RE.sub("", payload).split(",")
            if len(gaps) != len(sources) or any(gap.strip() for gap in gaps):
                raise ValueError(f"{path}:{lineno}: a noise line lists /regex/ entries split "
                                 f"by commas, got '{payload.strip()}'")
            for pattern_src in sources:
                try:
                    noise_patterns.append(re.compile(pattern_src, re.IGNORECASE))
                except re.error as exc:
                    raise ValueError(f"{path}:{lineno}: bad noise pattern /{pattern_src}/ ({exc})") from exc
            continue
        if name.lower() in named_on:
            raise ValueError(f"{path}:{lineno}: topic '{name}' is already named on line "
                             f"{named_on[name.lower()]}")
        named_on[name.lower()] = lineno
        kept: list[str] = []
        for chunk in payload.split(","):
            entry = chunk.strip()
            if not entry:
                continue
            tier = None
            tier_match = _TIER_RE.match(entry)
            if tier_match:
                entry, tier = tier_match.group(1).strip(), int(tier_match.group(2))
            label = entry.lower()
            if label in seen_labels:
                raise ValueError(f"{path}:{lineno}: label '{label}' already allocated to topic "
                                 f"'{seen_labels[label]}'")
            seen_labels[label] = name
            if tier is not None and tier > n_t:
                logger.warning("%s:%d: label '%s' ignored (tier %d > n_t=%d)",
                               path, lineno, label, tier, n_t)
                continue
            kept.append(label)
        if not kept:
            logger.warning("%s:%d: topic '%s' has no labels at n_t=%d", path, lineno, name, n_t)
        topics.append(Topic(name=name, labels=frozenset(kept)))
    if not topics:
        raise ValueError(f"{path}: schema defines no topics")
    return TopicSchema(domain=domain, topics=topics, noise_patterns=noise_patterns)


def bundled_schema_path(domain: str) -> Path:
    """Path of a schema shipped with the package (company, film, animal)."""
    root = resources.files("topicsum") / "schemas" / f"{domain.lower()}.txt"
    if not root.is_file():
        raise ValueError(f"no bundled schema for domain '{domain}'")
    return Path(str(root))


# ---------------------------------------------------------------------------
# statistics

def label_frequency_stats(articles: Sequence[RawArticle]) -> list[tuple[int, str, int]]:
    """(rank, label, count) rows, count descending, label ascending on ties."""
    counts: Counter[str] = Counter()
    for article in articles:
        for label, _ in article.sections:
            counts[label.strip().lower()] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [(rank, label, count) for rank, (label, count) in enumerate(ranked, start=1)]


def write_label_stats(path, rows: Sequence[tuple[int, str, int]]) -> None:
    with atomic_write(path) as handle:
        for rank, label, count in rows:
            handle.write(f"{rank}\t{label}\t{count}\n")


# ---------------------------------------------------------------------------
# paragraph extraction and the detector dataset

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_TAG_RE = re.compile(r"<[^>]+>")
_PARAGRAPH_SPLIT_RE = re.compile(r"\n\s*\n")


def strip_markup(text: str) -> str:
    # a tag needs '<' and a URL 'http' or 'www.' (case-sensitive), so a
    # block with none of the three is returned as it is
    if "<" not in text and "http" not in text and "www." not in text:
        return text
    return _TAG_RE.sub(" ", _URL_RE.sub(" ", text))


def iter_paragraphs(article: RawArticle):
    """Yield (paragraph_index, label, paragraph_text) over non-empty paragraphs."""
    index = 0
    for label, content in article.sections:
        for block in _PARAGRAPH_SPLIT_RE.split(content):
            text = strip_markup(block).strip()
            if not text:
                continue
            yield index, label, text
            index += 1


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(data: bytes, value: int) -> int:
    """64-bit FNV-1a from hash state `value` over `data`.  It reads the
    bytes in order, so hashing a prefix once and then each suffix from its
    state equals hashing each whole string."""
    for byte in data:
        value = ((value ^ byte) * 1099511628211) & _MASK64
    return value


def _title_state(title: str, seed: int) -> int:
    """FNV-1a state after `title#`, from the offset basis XORed with the
    seed's low 64 bits."""
    return _fnv1a64(f"{title}#".encode("utf-8"), 14695981039346656037 ^ (seed & _MASK64))


def _bucket(title_state: int, paragraph_index: int) -> int:
    return _fnv1a64(str(paragraph_index).encode("ascii"), title_state) % 10


def split_bucket(title: str, paragraph_index: int, seed: int) -> int:
    """Split bucket (0-9) of a paragraph: seeded FNV-1a of `title#index`."""
    return _bucket(_title_state(title, seed), paragraph_index)


@dataclass(frozen=True)
class TopicParagraphExample:
    topic_index: int
    token_ids: tuple[int, ...]


@dataclass
class DatasetSplits:
    train: list[TopicParagraphExample]
    valid: list[TopicParagraphExample]
    test: list[TopicParagraphExample]


def build_detector_dataset(articles: Sequence[RawArticle], schema: TopicSchema,
                           vocab: Vocabulary, seed: int = 42) -> DatasetSplits:
    """Label every allocated paragraph with its topic (NOISE wins over the
    section label) and split 8:1:1 by seeded hash of (title, paragraph index)."""
    splits = DatasetSplits(train=[], valid=[], test=[])
    for article in articles:
        title_state = _title_state(article.title, seed)
        for index, label, text in iter_paragraphs(article):
            topic = schema.noise_index if schema.is_noise_text(text) else schema.topic_of_label(label)
            if topic is None:
                continue  # label outside the schema: paragraph unused
            example = TopicParagraphExample(topic_index=topic,
                                            token_ids=tuple(vocab.encode(tokenize(text))))
            bucket = _bucket(title_state, index)
            if bucket in TRAIN_BUCKETS:
                splits.train.append(example)
            elif bucket == VALID_BUCKET:
                splits.valid.append(example)
            else:
                splits.test.append(example)
    return splits


def write_detector_dataset(path, examples: Sequence[TopicParagraphExample]) -> None:
    with atomic_write(path) as handle:
        for example in examples:
            ids = " ".join(str(i) for i in example.token_ids)
            handle.write(f"{example.topic_index}\t{ids}\n")


def load_detector_dataset(path, n_classes: int, vocab_size: int,
                          vocab_path) -> list[TopicParagraphExample]:
    """Read 'topic<TAB>ids' lines; a topic outside [0, n_classes) or a token
    id outside [0, vocab_size) is an error naming its line, and for a token
    id also `vocab_path`, the vocabulary file that sets the size."""
    examples: list[TopicParagraphExample] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'topic<TAB>ids'")
        try:
            topic = int(parts[0])
            ids = tuple(int(tok) for tok in parts[1].split())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer field ({exc})") from exc
        if not 0 <= topic < n_classes:
            raise ValueError(f"{path}:{lineno}: topic {topic} outside [0, {n_classes})")
        bad = [i for i in ids if not 0 <= i < vocab_size]
        if bad:
            raise ValueError(f"{path}:{lineno}: token id {bad[0]} outside [0, {vocab_size}) "
                             f"of the vocabulary {vocab_path}")
        examples.append(TopicParagraphExample(topic_index=topic, token_ids=ids))
    return examples


def article_token_sequences(articles: Sequence[RawArticle]) -> Iterable[list[str]]:
    """Tokenized non-empty paragraphs of every article, for vocabulary builds."""
    for article in articles:
        for _, _, text in iter_paragraphs(article):
            yield tokenize(text)


# ---------------------------------------------------------------------------
# summarization dataset

PARAGRAPH_SEPARATOR = "⟨p⟩"
SENTENCE_SEPARATOR = "⟨s⟩"


def abstract_sentences(text: str) -> list[list[str]]:
    """Token lists of an abstract's sentences: split on the sentence marker
    when `text` holds one, otherwise by `split_sentences`; empty sentences
    are dropped."""
    if SENTENCE_SEPARATOR in text:
        sentence_texts = text.split(SENTENCE_SEPARATOR)
    else:
        sentence_texts = split_sentences(text)
    return [tokens for tokens in map(tokenize, sentence_texts) if tokens]


@dataclass
class SummarizationExample:
    """One article: input paragraphs plus the gold abstract, kept both as
    surface tokens (copy alignment) and vocabulary ids (UNK for OOV)."""

    title: str
    paragraph_tokens: list[list[str]]
    paragraph_ids: list[list[int]]
    abstract_tokens: list[list[str]]  # one list per gold sentence
    abstract_ids: list[list[int]]


def load_summarization_dataset(path, vocab: Vocabulary,
                               require_abstract: bool = True) -> list[SummarizationExample]:
    """Read "title TAB paragraphs TAB abstract" records.

    Paragraphs are separated by the paragraph marker; the abstract may carry
    explicit sentence markers, otherwise the rule-based splitter applies.
    With `require_abstract`, records with no input paragraph or an empty
    abstract are skipped with a warning; generation-only inputs pass
    `require_abstract=False` and keep every record, one output line each.
    A blank line is skipped, unless it splits into three (blank) fields:
    that is a record.
    """
    examples: list[SummarizationExample] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        parts = line.split("\t")
        if not line.strip() and len(parts) != 3:
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        title, paragraph_field, abstract_field = parts
        paragraph_tokens = [tokenize(block) for block in paragraph_field.split(PARAGRAPH_SEPARATOR)]
        paragraph_tokens = [toks for toks in paragraph_tokens if toks]
        if not paragraph_tokens and require_abstract:
            logger.warning("%s:%d: no input paragraphs, record skipped", path, lineno)
            continue
        abstract_tokens = abstract_sentences(abstract_field)
        if not abstract_tokens and require_abstract:
            logger.warning("%s:%d: empty abstract, record skipped", path, lineno)
            continue
        examples.append(SummarizationExample(
            title=title,
            paragraph_tokens=paragraph_tokens,
            paragraph_ids=[vocab.encode(toks) for toks in paragraph_tokens],
            abstract_tokens=abstract_tokens,
            abstract_ids=[vocab.encode(toks) for toks in abstract_tokens],
        ))
    return examples


def write_summarization_dataset(path, examples: Sequence[SummarizationExample]) -> None:
    with atomic_write(path) as handle:
        for example in examples:
            if "\t" in example.title:
                raise ValueError(f"title contains a tab: {example.title!r}")
            paragraphs = f" {PARAGRAPH_SEPARATOR} ".join(
                " ".join(tokens) for tokens in example.paragraph_tokens)
            abstract = f" {SENTENCE_SEPARATOR} ".join(
                " ".join(tokens) for tokens in example.abstract_tokens)
            handle.write(f"{example.title}\t{paragraphs}\t{abstract}\n")

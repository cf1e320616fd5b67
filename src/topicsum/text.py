"""Tokenization, rule-based sentence splitting, and the capped vocabulary."""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from .fileio import atomic_write, read_lines

__all__ = [
    "tokenize",
    "split_sentences",
    "DEFAULT_ABBREVIATIONS",
    "Vocabulary",
    "PAD_ID",
    "UNK_ID",
    "BOS_ID",
    "EOS_ID",
    "RESERVED_TOKENS",
]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# sentence boundary: terminal punctuation, whitespace, then an upper-case
# letter or digit opening the next sentence
_BOUNDARY_RE = re.compile(r"[.!?](?=\s+[A-Z0-9])")
_WORD_BEFORE_RE = re.compile(r"(\w+)$")

# initials ("K. R. Narayana") plus common title and corporate abbreviations
DEFAULT_ABBREVIATIONS = frozenset(
    set("abcdefghijklmnopqrstuvwxyz")
    | {"mr", "mrs", "ms", "dr", "prof", "rev", "hon", "jr", "sr", "st",
       "vs", "etc", "inc", "ltd", "co", "corp", "dept", "fig", "vol", "est", "approx"}
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens and single punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split on terminal punctuation followed by whitespace and an
    upper-case/digit sentence opener, guarding the words in
    `DEFAULT_ABBREVIATIONS`.

    The concatenation of the returned sentences equals the input up to the
    inter-sentence whitespace; no text is dropped.
    """
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        end = match.end()  # position just after the punctuation mark
        if end <= start:
            continue  # boundary inside an already-consumed span
        if text[match.start()] == ".":
            before = _WORD_BEFORE_RE.search(text, 0, match.start())
            if before is not None and before.group(1).lower() in DEFAULT_ABBREVIATIONS:
                continue
        sentences.append(text[start:end].strip())
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return [s for s in sentences if s]


PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")


class Vocabulary:
    """Token/id bijection with four reserved slots and a frequency cap.

    Ids are dense: reserved tokens take 0..3, corpus tokens follow in
    frequency order (ties broken lexicographically).
    """

    def __init__(self, corpus_tokens: Sequence[str]):
        self._tokens = list(RESERVED_TOKENS) + list(corpus_tokens)
        self._index = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ValueError("duplicate token in vocabulary")

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]], cap: int = 50000) -> "Vocabulary":
        """Count tokens over an iterable of token sequences and keep the
        `cap - 4` most frequent."""
        if cap < 5:
            raise ValueError(f"vocabulary cap must be at least 5, got {cap}")
        counts: Counter[str] = Counter()
        for sequence in corpus:
            counts.update(sequence)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return cls([token for token, _ in ranked[: cap - 4]])

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def token_to_id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def id_to_token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise IndexError(f"token id {token_id} outside [0, {len(self._tokens)})")
        return self._tokens[token_id]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        index = self._index
        return [index.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token(i) for i in ids]

    def save(self, path) -> None:
        """One token per line.  A token holding "\\n" or "\\r" would split
        into two lines on load and shift every later id, so it is refused
        before anything is written."""
        for token_id, token in enumerate(self._tokens):
            if "\n" in token or "\r" in token:
                raise ValueError(f"vocabulary token {token_id} holds a line break: {token!r}")
        with atomic_write(path) as handle:
            handle.write("\n".join(self._tokens) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """A file `save` wrote; a wrong reserved or a repeated token raises naming its line."""
        lines = [line.rstrip("\n") for line in read_lines(path)]
        for lineno, reserved in enumerate(RESERVED_TOKENS, start=1):
            if lines[lineno - 1:lineno] != [reserved]:
                raise ValueError(f"{path}:{lineno}: not a vocabulary file (expected '{reserved}')")
        seen: set[str] = set()
        for lineno, token in enumerate(lines, start=1):
            if token in seen:
                raise ValueError(f"{path}:{lineno}: duplicate token '{token}'")
            seen.add(token)
        return cls(lines[4:])

"""ROUGE-1/2/L F1 scoring, overlap-based sentence dedup, corpus reports."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fileio import atomic_write

__all__ = [
    "RougeScore",
    "rouge_n",
    "rouge_l",
    "DEDUP_RATIO",
    "dedup_sentences",
    "EvalReport",
    "evaluate_corpus",
    "write_eval_report",
]


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(matched: float, candidate_total: int, reference_total: int) -> "RougeScore":
        precision = matched / candidate_total if candidate_total else 0.0
        recall = matched / reference_total if reference_total else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        return RougeScore(precision=precision, recall=recall, f1=f1)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int = 1) -> RougeScore:
    """Clipped n-gram overlap F1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    candidate_counts = _ngram_counts(candidate, n)
    reference_counts = _ngram_counts(reference, n)
    matched = sum(min(count, reference_counts[gram])
                  for gram, count in candidate_counts.items())
    return RougeScore.from_counts(matched,
                                  sum(candidate_counts.values()),
                                  sum(reference_counts.values()))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of a longest common subsequence, by the bit-vector LCS
    (Allison & Dix 1986; Hyyrö 2004): bit j of `row` is 0 where the DP row
    over b steps up at j, and each token of a updates all of b at once."""
    matches: dict[str, int] = {}
    for j, token in enumerate(b):
        matches[token] = matches.get(token, 0) | 1 << j
    full = (1 << len(b)) - 1
    row = full
    for token in a:
        hits = row & matches.get(token, 0)
        row = ((row + hits) | (row - hits)) & full
    return len(b) - row.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence F1 over the flattened token streams."""
    lcs = _lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


def _overlap_ratio(a: Sequence[str], b: Sequence[str]) -> float:
    shorter = min(len(a), len(b))
    if shorter == 0:
        return 0.0
    shared = len(set(a) & set(b))
    return shared / shorter


DEDUP_RATIO = 0.5   # shared-token ratio above which a later sentence is a repeat


def dedup_sentences(sentences: Sequence[Sequence[str]]) -> list[list[str]]:
    """Drop any sentence whose shared-token ratio against an earlier kept
    sentence exceeds `DEDUP_RATIO` (ratio is relative to the shorter one).
    Idempotent: survivors are pairwise within the ratio."""
    kept: list[list[str]] = []
    for sentence in sentences:
        if any(_overlap_ratio(sentence, earlier) > DEDUP_RATIO for earlier in kept):
            continue
        kept.append(list(sentence))
    return kept


@dataclass
class ExampleScores:
    rouge_1: RougeScore
    rouge_2: RougeScore
    rouge_l: RougeScore


@dataclass
class EvalReport:
    rows: list[ExampleScores]

    @property
    def n_examples(self) -> int:
        return len(self.rows)

    @property
    def mean_rouge_1(self) -> float:
        return float(np.mean([r.rouge_1.f1 for r in self.rows])) if self.rows else 0.0

    @property
    def mean_rouge_2(self) -> float:
        return float(np.mean([r.rouge_2.f1 for r in self.rows])) if self.rows else 0.0

    @property
    def mean_rouge_l(self) -> float:
        return float(np.mean([r.rouge_l.f1 for r in self.rows])) if self.rows else 0.0


def evaluate_corpus(generated: Sequence[Sequence[Sequence[str]]],
                    gold: Sequence[Sequence[Sequence[str]]]) -> EvalReport:
    """Score aligned abstracts (lists of token-list sentences).

    Generated abstracts are deduplicated first, at `DEDUP_RATIO`; both
    sides are flattened for ROUGE-1/2 and for summary-level LCS.
    """
    if len(generated) != len(gold):
        raise ValueError(f"aligned lists required: {len(generated)} generated "
                         f"vs {len(gold)} gold abstracts")
    rows: list[ExampleScores] = []
    for candidate_sentences, reference_sentences in zip(generated, gold):
        deduped = dedup_sentences(candidate_sentences)
        candidate = [tok for sentence in deduped for tok in sentence]
        reference = [tok for sentence in reference_sentences for tok in sentence]
        rows.append(ExampleScores(
            rouge_1=rouge_n(candidate, reference, 1),
            rouge_2=rouge_n(candidate, reference, 2),
            rouge_l=rouge_l(candidate, reference),
        ))
    return EvalReport(rows=rows)


def write_eval_report(path, report: EvalReport) -> None:
    """Tab-separated F1 table: header, one row per example, MEAN row last."""
    with atomic_write(path) as handle:
        handle.write("example\trouge1_f1\trouge2_f1\trougeL_f1\n")
        for index, row in enumerate(report.rows):
            handle.write(f"{index}\t{row.rouge_1.f1:.6f}\t{row.rouge_2.f1:.6f}"
                         f"\t{row.rouge_l.f1:.6f}\n")
        handle.write(f"MEAN\t{report.mean_rouge_1:.6f}\t{report.mean_rouge_2:.6f}"
                     f"\t{report.mean_rouge_l:.6f}\n")

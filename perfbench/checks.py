"""Output checks.  Each returns None when the output passes, else a message.

Every check rests on a computation made apart from the code it checks, or on
a property the method must have; none compares against stored output.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from topicsum import generator
from topicsum.text import EOS_ID


# ---------------------------------------------------------------------------
# training

def directional_derivative(params: Mapping[str, object], loss_fn: Callable[[], float],
                           eps: float, tol: float) -> str | None:
    """Central finite difference of `loss_fn` along the computed gradient.

    Along d = g/|g| the computed derivative is |g|, large enough to stand out
    of float32 rounding where a random direction's is not.  Parameters are
    restored exactly afterwards.
    """
    norm = math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                         for p in params.values()))
    if not norm > 0.0 or not math.isfinite(norm):
        return f"gradient norm is {norm}"
    saved = {name: p.data.copy() for name, p in params.items()}
    losses = []
    try:
        for sign in (1.0, -1.0):
            for name, p in params.items():
                p.data[...] = saved[name] + (sign * eps / norm) * p.grad
            losses.append(loss_fn())
    finally:
        for name, p in params.items():
            p.data[...] = saved[name]
    measured = (losses[0] - losses[1]) / (2.0 * eps)
    error = abs(measured - norm) / norm
    if not error <= tol:
        return (f"directional derivative {measured:.6g} by finite differences, "
                f"{norm:.6g} from the gradient (relative error {error:.3g} > {tol})")
    return None


def adam_first_step(before: Mapping[str, np.ndarray], params: Mapping[str, object],
                    lr: float) -> str | None:
    """Adam's first update is lr * g / (|g| + eps): no entry moves by more
    than lr, up to one float32 rounding of the parameter, and entries with a
    clear gradient move by almost exactly lr."""
    largest = 0.0
    for name, p in params.items():
        moved = float(np.abs(p.data - before[name]).max())
        limit = lr * (1.0 + 2.0 ** -16) + float(np.spacing(np.abs(before[name]).max()))
        if not moved <= limit:
            return f"parameter '{name}' moved by {moved:.6g} in Adam's first step (lr {lr:g})"
        largest = max(largest, moved)
    if largest < 0.5 * lr:
        return f"Adam's first step moved no parameter by lr/2 (largest move {largest:.3g})"
    return None


def loss_decreased(before: float, after: Sequence[float]) -> str | None:
    """Every loss is finite and the last is lower than the one before training."""
    if not all(math.isfinite(x) for x in (before, *after)):
        return f"non-finite loss: before {before}, after {list(after)}"
    if not after[-1] < before:
        return f"loss did not fall: {before:.6g} before training, {after[-1]:.6g} after"
    return None


# ---------------------------------------------------------------------------
# generation

def abstract_shape(sentences: Sequence[Sequence[str]], n_sentences: int,
                   n_tokens: int) -> str | None:
    lengths = [len(s) for s in sentences]
    if lengths != [n_tokens] * n_sentences:
        return f"abstract sentence lengths {lengths}, expected {n_sentences} x {n_tokens}"
    return None


def tokens_known(sentences: Sequence[Sequence[str]], vocab, input_tokens: set[str]) -> str | None:
    """Every token is a vocabulary word or a token of the record's input."""
    for sentence in sentences:
        for token in sentence:
            if token not in vocab and token not in input_tokens:
                return f"token '{token}' is neither in the vocabulary nor in the input"
    return None


def greedy_follows_teacher_forcing(model, paragraphs, assignment, schema, vocab,
                                   sentences: Sequence[Sequence[str]], mode: str,
                                   ttg_cap: int, max_tokens: int,
                                   tol: float = 1e-6) -> str | None:
    """A beam-1 abstract takes, at each position, the argmax of the
    distribution teacher forcing gives for its own prefix.

    A pick within `tol` (relative) of the maximum counts as a near tie.  A
    sentence shorter than `max_tokens` ended on EOS, so its last position
    must pick EOS too.
    """
    grouped = generator.group_paragraphs(paragraphs, assignment, schema, vocab, ttg_cap)
    encoding = generator.encode_topics(model, grouped)
    dists, targets, _ = generator.teacher_forced_outputs(model, encoding, grouped,
                                                         sentences, vocab, mode)
    for index, (sentence_dists, sentence_targets) in enumerate(zip(dists, targets)):
        checked = len(sentence_targets) if len(sentence_targets) <= max_tokens else max_tokens
        for position in range(checked):
            probs = sentence_dists[position].data[0]
            target = sentence_targets[position]
            best = int(np.argmax(probs))
            if target != best and probs[target] < probs[best] * (1.0 - tol):
                chosen = "EOS" if target == EOS_ID else target
                return (f"sentence {index} position {position}: picked {chosen} with "
                        f"p={probs[target]:.6g}, argmax is {best} with p={probs[best]:.6g}")
    return None


def same_output(first: Sequence[Sequence[str]], again: Sequence[Sequence[str]]) -> str | None:
    if render(first) != render(again):
        return "generating the same record twice gave different abstracts"
    return None


def render(sentences: Sequence[Sequence[str]]) -> bytes:
    return " ".join(" ".join(s) for s in sentences).encode("utf-8")


# ---------------------------------------------------------------------------
# detector and toy pipeline

def at_least(name: str, value: float, floor: float) -> str | None:
    if not value >= floor:
        return f"{name} {value:.6g} is below {floor}"
    return None


def below(name: str, value: float, ceiling: float) -> str | None:
    if not value < ceiling:
        return f"{name} {value:.6g} is not below {ceiling}"
    return None


def accuracy(predicted: Sequence[int], gold: Sequence[int]) -> float:
    return sum(p == g for p, g in zip(predicted, gold)) / len(gold)


def teacher_forced_nll(model, examples, assignments, schema, vocab, mode: str,
                       ttg_cap: int) -> float:
    """Token-weighted mean of -log p(gold token), EOS included, taken from
    the model's teacher-forced distributions (not from its loss code)."""
    total, count = 0.0, 0
    for example, assignment in zip(examples, assignments):
        grouped = generator.group_paragraphs(example.paragraph_tokens, assignment,
                                             schema, vocab, ttg_cap)
        encoding = generator.encode_topics(model, grouped)
        dists, targets, _ = generator.teacher_forced_outputs(
            model, encoding, grouped, example.abstract_tokens, vocab, mode)
        for sentence_dists, sentence_targets in zip(dists, targets):
            for dist, target in zip(sentence_dists, sentence_targets):
                total -= math.log(max(float(dist.data[0, target]), 1e-12))
                count += 1
    return total / count


# ---------------------------------------------------------------------------
# reference ROUGE: clipped n-gram counts and an LCS table

def _f1(matched: int, candidate: int, reference: int) -> float:
    if matched == 0:
        return 0.0
    precision, recall = matched / candidate, matched / reference
    return 2.0 * precision * recall / (precision + recall)


def ref_rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> float:
    grams_c = Counter(zip(*(candidate[i:] for i in range(n))))
    grams_r = Counter(zip(*(reference[i:] for i in range(n))))
    matched = sum((grams_c & grams_r).values())
    return _f1(matched, sum(grams_c.values()), sum(grams_r.values()))


def ref_rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    table = [[0] * (len(reference) + 1) for _ in range(len(candidate) + 1)]
    for i, a in enumerate(candidate, start=1):
        for j, b in enumerate(reference, start=1):
            table[i][j] = (table[i - 1][j - 1] + 1 if a == b
                           else max(table[i - 1][j], table[i][j - 1]))
    return _f1(table[-1][-1], len(candidate), len(reference))


def rouge_matches_reference(report, generated, gold, tol: float = 1e-12) -> str | None:
    """`evaluate_corpus` F1 scores equal the reference ones for every pair.
    `generated` must already be deduplicated (dedup is idempotent)."""
    if report.n_examples != len(gold):
        return f"{report.n_examples} scored pairs for {len(gold)} abstracts"
    for index, (row, candidate, reference) in enumerate(zip(report.rows, generated, gold)):
        flat_c = [t for s in candidate for t in s]
        flat_r = [t for s in reference for t in s]
        expected = (ref_rouge_n(flat_c, flat_r, 1), ref_rouge_n(flat_c, flat_r, 2),
                    ref_rouge_l(flat_c, flat_r))
        got = (row.rouge_1.f1, row.rouge_2.f1, row.rouge_l.f1)
        for label, e, g in zip(("ROUGE-1", "ROUGE-2", "ROUGE-L"), expected, got):
            if not abs(e - g) <= tol:
                return f"pair {index}: {label} F1 {g!r} from evaluate_corpus, {e!r} by reference"
    return None


def mean_rouge_l(generated, gold) -> float:
    return sum(ref_rouge_l([t for s in c for t in s], [t for s in r for t in s])
               for c, r in zip(generated, gold)) / len(gold)

"""Shows that every output check passes a good output and fails a corrupted one.

    python3 perfbench/selftest.py

Runs in a few seconds on tiny models; exits 1 if any check misjudges.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topicsum import autodiff as ad  # noqa: E402
from topicsum import generator  # noqa: E402
from topicsum.corpus import SummarizationExample, Topic, TopicSchema  # noqa: E402
from topicsum.rouge import evaluate_corpus  # noqa: E402
from topicsum.text import Vocabulary  # noqa: E402

import checks  # noqa: E402
import paper  # noqa: E402

WORDS = [f"w{i}" for i in range(24)]
VOCAB = Vocabulary(WORDS)
SCHEMA = TopicSchema(domain="tiny", topics=[Topic("a", frozenset({"a"})), Topic("b", frozenset({"b"}))])
PARAGRAPHS = [["w1", "w2", "w3", "qx", "w4"], ["w5", "w6", "qy", "w7"]]
GOLD = [["w1", "qx", "w3"], ["w6", "w7", "qy"]]
EXAMPLE = SummarizationExample("tiny", PARAGRAPHS, [VOCAB.encode(p) for p in PARAGRAPHS],
                               GOLD, [VOCAB.encode(s) for s in GOLD])
ASSIGNMENT = [0, 1]


def tiny_model(seed: int = 3):
    return generator.GeneratorModel(len(VOCAB), 2, embed_dim=6, hidden_dim=6, seed=seed)


def loss_of(model) -> float:
    return generator.example_loss(model, EXAMPLE, ASSIGNMENT, SCHEMA, VOCAB)[2].item()


def gradient_cases():
    model = tiny_model()
    params = model.parameters()
    with ad.tape() as recording:
        recording.backward(generator.example_loss(model, EXAMPLE, ASSIGNMENT, SCHEMA, VOCAB)[2])
    yield "gradient: computed", checks.directional_derivative(params, lambda: loss_of(model), 1e-2, 1e-2), False
    for p in params.values():
        p.grad = -p.grad
    yield "gradient: sign flipped", checks.directional_derivative(params, lambda: loss_of(model), 1e-2, 1e-2), True
    for p in params.values():
        p.grad = -p.grad
    before = {name: p.data.copy() for name, p in params.items()}
    optimizer = ad.Adam(params, lr=1e-3)
    optimizer.step()
    yield "adam: first step", checks.adam_first_step(before, params, 1e-3), False
    yield "adam: step twice lr", checks.adam_first_step(before, params, 5e-4), True
    for name, p in params.items():
        p.data[...] = before[name]
    yield "adam: no step", checks.adam_first_step(before, params, 1e-3), True
    yield "loss: falls", checks.loss_decreased(2.0, [1.9, 1.5]), False
    yield "loss: rises", checks.loss_decreased(2.0, [1.9, 2.1]), True
    yield "loss: not finite", checks.loss_decreased(2.0, [float("nan"), 1.5]), True


def generation_cases():
    model = tiny_model()
    paper.pin(model, paper.PINNED_BIAS)
    config = generator.DecodeConfig(beam_size=1, max_sentences=2, max_sentence_tokens=4)
    greedy = generator.generate_abstract(model, PARAGRAPHS, ASSIGNMENT, SCHEMA, VOCAB, config)

    def follows(sentences):
        return checks.greedy_follows_teacher_forcing(model, PARAGRAPHS, ASSIGNMENT, SCHEMA, VOCAB,
                                                     sentences, "soft", 400, 4)

    yield "shape: 2 x 4", checks.abstract_shape(greedy, 2, 4), False
    yield "shape: token dropped", checks.abstract_shape([greedy[0][:3], greedy[1]], 2, 4), True
    inputs = {t for p in PARAGRAPHS for t in p}
    yield "tokens: known", checks.tokens_known(greedy, VOCAB, inputs), False
    yield "tokens: foreign token", checks.tokens_known([greedy[0], ["zz"] + greedy[1][1:]], VOCAB, inputs), True
    yield "greedy: as generated", follows(greedy), False
    swapped = [list(s) for s in greedy]
    swapped[1][2] = next(w for w in WORDS if w != swapped[1][2])
    yield "greedy: token swapped", follows(swapped), True
    yield "repeat: identical", checks.same_output(greedy, [list(s) for s in greedy]), False
    yield "repeat: token swapped", checks.same_output(greedy, swapped), True


def pipeline_cases():
    yield "detector: accuracy 1.0", checks.at_least("accuracy", checks.accuracy([0, 1] * 10, [0, 1] * 10), 0.95), False
    yield "detector: 2 of 20 wrong", checks.at_least("accuracy", checks.accuracy([0, 1] * 10, [0, 1] * 9 + [1, 0]), 0.95), True
    model = tiny_model()
    nll = checks.teacher_forced_nll(model, [EXAMPLE], [ASSIGNMENT], SCHEMA, VOCAB, "soft", 400)
    sentence_loss = generator.example_loss(model, EXAMPLE, ASSIGNMENT, SCHEMA, VOCAB)[0].item()
    # gold sentences of equal length: the token mean equals the program's sentence loss
    yield "nll: matches the program's loss", checks.below("difference", abs(nll - sentence_loss), 1e-5), False
    yield "nll: untrained model", checks.below("NLL", nll, 0.1), True

    generated = [[["the", "cat", "sat"]], [["a", "b", "c", "d"], ["e", "f"]]]
    gold = [[["the", "cat", "ate"]], [["a", "b", "d", "c"], ["e", "f"]]]
    hand = (checks.ref_rouge_n(["the", "cat", "sat"], ["the", "cat", "ate"], 1),
            checks.ref_rouge_n(["the", "cat", "sat"], ["the", "cat", "ate"], 2),
            checks.ref_rouge_l(["the", "cat", "sat"], ["the", "cat", "ate"]))
    yield "reference ROUGE: hand case", (None if hand == (2 / 3, 0.5, 2 / 3) else f"got {hand}"), False
    report = evaluate_corpus(generated, gold)
    yield "ROUGE: evaluate_corpus", checks.rouge_matches_reference(report, generated, gold), False
    row = report.rows[1]
    perturbed = dataclasses.replace(row, rouge_2=dataclasses.replace(row.rouge_2, f1=row.rouge_2.f1 + 1e-9))
    report.rows[1] = perturbed
    yield "ROUGE: score perturbed", checks.rouge_matches_reference(report, generated, gold), True
    yield "ROUGE-L: gold", checks.at_least("ROUGE-L", checks.mean_rouge_l(gold, gold), 0.95), False
    yield "ROUGE-L: reordered", checks.at_least("ROUGE-L", checks.mean_rouge_l(generated, gold), 0.95), True


def main() -> int:
    wrong = 0
    for cases in (gradient_cases(), generation_cases(), pipeline_cases()):
        for name, problem, should_fail in cases:
            ok = (problem is not None) == should_fail
            wrong += not ok
            verdict = "fails" if problem is not None else "passes"
            print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}" + (f" ({problem})" if problem else ""))
    print(f"{wrong} check(s) misjudged" if wrong else "every check judged correctly")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

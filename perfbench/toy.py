"""Toy pipeline: the CLI walkthrough's stages through the calls the CLI makes.

One vocabulary over the synthetic detector articles and the 20-example
summarization corpus (as `build-corpus --summarization`), detector training,
topic assignment with `detect_topics`, a generator overfit (E=48, H=64,
lr 2e-3, as acceptance criterion 5), a checkpoint round trip into fresh
models (as `generate`), beam-3 decoding of every record, and scoring with
`evaluate_corpus`.  At V=79 and H=64 the per-op cost of Python and the
tape dominates; matrix products are negligible.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

import numpy as np

from topicsum import autodiff as ad
from topicsum import checkpoint, generator
from topicsum.corpus import (DatasetSplits, SummarizationExample, TopicSchema,
                             article_token_sequences, build_detector_dataset)
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder, detect_topics, train_detector
from topicsum.generator import DecodeConfig
from topicsum.rouge import dedup_sentences, evaluate_corpus
from topicsum.synthetic import toy_detector_articles, toy_schema, toy_summarization_corpus
from topicsum.text import Vocabulary

import checks
from common import HostClock, train_step

N_ARTICLES, N_EXAMPLES, VOCAB_CAP = 120, 20, 500
DETECTOR_DIM, DETECTOR_EPOCHS, DETECTOR_LR = 32, 4, 0.01
EMBED, HIDDEN, LR = 48, 64, 2e-3
EPOCHS = 60                     # criterion 5; at the walkthrough's 40 some seeds stay above NLL 0.1
DECODE = DecodeConfig(topic_mode="soft", beam_size=3, max_sentences=6, max_sentence_tokens=10)
PASSES = 6                      # decoding passes over every record; the first is warm-up
SETUPS = 15
# the walkthrough's fixed seeds: its corpora are made with seed 0, and the
# program's own seed (models, splits, example order) is the config default.
# With either drawn from the benchmark seed, the overfit misses criterion 5's
# bounds on about one seed in ten, so the checks would fail on some seeds only.
CORPUS_SEED, PROGRAM_SEED = 0, 42
PROBE_REFERENCE_S = 4e-4


@dataclasses.dataclass
class State:
    schema: TopicSchema
    vocab: Vocabulary
    splits: DatasetSplits
    examples: list[SummarizationExample]
    detector: DetectorModel
    model: generator.GeneratorModel


def make_clock() -> HostClock:
    """The probe makes small numpy calls and Python objects, the per-op
    overhead that dominates at this size."""
    def probe():
        x = np.full((1, 64), 0.5, np.float32)
        w = np.full((64, 64), 0.01, np.float32)
        records = []
        for i in range(60):
            y = np.tanh(x @ w + 0.1) * 0.5
            x = y + x * 0.5
            records.append((i, float(y.sum()), [i] * 3, {"step": i}))
    return HostClock(probe, PROBE_REFERENCE_S, per_item=True)


def new_detector(vocab, schema) -> DetectorModel:
    rng = np.random.default_rng(PROGRAM_SEED)
    encoder = MeanEmbeddingEncoder(len(vocab), DETECTOR_DIM, DETECTOR_DIM, rng)
    return DetectorModel(encoder, schema.n_classes, rng)


def new_generator(vocab, schema, tracer) -> generator.GeneratorModel:
    with tracer.span("GeneratorModel"):
        return generator.GeneratorModel(len(vocab), len(schema.topics), EMBED, HIDDEN,
                                        seed=PROGRAM_SEED)


def set_up(tracer) -> State:
    articles = toy_detector_articles(N_ARTICLES, CORPUS_SEED)
    corpus = toy_summarization_corpus(N_EXAMPLES, CORPUS_SEED)
    schema = toy_schema()
    sequences = list(article_token_sequences(articles))
    for example in corpus.examples:
        sequences.extend(example.paragraph_tokens)
        sequences.extend(example.abstract_tokens)
    vocab = Vocabulary.build(sequences, cap=VOCAB_CAP)
    splits = build_detector_dataset(articles, schema, vocab, seed=PROGRAM_SEED)
    examples = [SummarizationExample(
        title=ex.title, paragraph_tokens=ex.paragraph_tokens,
        paragraph_ids=[vocab.encode(p) for p in ex.paragraph_tokens],
        abstract_tokens=ex.abstract_tokens,
        abstract_ids=[vocab.encode(s) for s in ex.abstract_tokens]) for ex in corpus.examples]
    return State(schema, vocab, splits, examples, new_detector(vocab, schema),
                 new_generator(vocab, schema, tracer))


def pipeline(state: State, clock, tracer, outcome, workdir, samples) -> None:
    """One round: every stage once, decoding repeated PASSES times."""
    schema, vocab, examples = state.schema, state.vocab, state.examples
    op = outcome.op()
    splits = state.splits
    with tracer.span("train_detector", work=len(splits.train) * DETECTOR_EPOCHS):
        train_detector(state.detector, splits.train, splits.valid, epochs=DETECTOR_EPOCHS,
                       lr=DETECTOR_LR, seed=PROGRAM_SEED)
    predicted = detect_topics([ex.token_ids for ex in splits.test], state.detector)
    outcome.check(op, checks.at_least("detector test accuracy", checks.accuracy(
        predicted, [ex.topic_index for ex in splits.test]), 0.95))
    with tracer.span("detect_topics", work=sum(len(ex.paragraph_ids) for ex in examples)):
        assignments = [detect_topics(ex.paragraph_ids, state.detector) for ex in examples]

    # generator overfit; a sample is one epoch, the same set of work each time
    optimizer = ad.Adam(state.model.parameters(), lr=LR)
    order = np.random.default_rng(PROGRAM_SEED)
    train_ops = []
    for epoch in range(EPOCHS):
        sample = [0.0, 0.0]
        for index in order.permutation(len(examples)):
            train_ops.append(outcome.op())
            with clock.timed(sample), tracer.item("train", timed=epoch > 0):
                train_step(state.model, optimizer, examples[index], assignments[index], schema,
                           vocab, tracer, timed=epoch > 0)
        if epoch > 0:
            samples["train"].append((sample, len(examples)))

    # checkpoints loaded into fresh models, as `topicsum generate` does
    detector_ckpt, generator_ckpt = workdir / "detector.ckpt", workdir / "generator.ckpt"
    checkpoint.save_tensors(detector_ckpt, state.detector.parameters())
    checkpoint.save_tensors(generator_ckpt, state.model.parameters())
    detector = new_detector(vocab, schema)
    with tracer.span("load_into"):
        checkpoint.load_into(detector.parameters(), detector_ckpt)
    model = new_generator(vocab, schema, tracer)
    with tracer.span("load_into"):
        checkpoint.load_into(model.parameters(), generator_ckpt)
    nll = checks.teacher_forced_nll(model, examples, assignments, schema, vocab,
                                    DECODE.topic_mode, DECODE.ttg_cap)
    outcome.check(train_ops, checks.below("generator NLL", nll, 0.1))

    # decoding; a sample is one pass over every record
    first_pass: list[tuple[int, list[list[str]], list[list[str]]]] = []
    for decode_pass in range(PASSES):
        sample = [0.0, 0.0]
        for index, example in enumerate(examples):
            op = outcome.op()
            with clock.timed(sample), tracer.item("abstract", timed=decode_pass > 0):
                with tracer.span("detect_topics", work=len(example.paragraph_ids)):
                    assignment = detect_topics(example.paragraph_ids, detector)
                sentences = generator.generate_abstract(model, example.paragraph_tokens, assignment,
                                                        schema, vocab, DECODE)
                with tracer.span("dedup_sentences"):
                    abstract = dedup_sentences(sentences)
            if decode_pass == 0:
                first_pass.append((op, sentences, abstract))
            else:
                outcome.check(op, checks.same_output(first_pass[index][2], abstract))
        if decode_pass > 0:
            samples["abstract"].append((sample, len(examples)))

    abstract_ops = [op for op, _, _ in first_pass]
    generated = [abstract for _, _, abstract in first_pass]
    gold = [example.abstract_tokens for example in examples]
    outcome.check(abstract_ops, checks.at_least("mean ROUGE-L", checks.mean_rouge_l(generated, gold), 0.95))
    stops = sum(len(sentences) == len(example.abstract_tokens)
                for (_, sentences, _), example in zip(first_pass, examples)) / len(examples)
    outcome.check(abstract_ops, checks.at_least("share of records with the gold sentence count", stops, 0.9))
    op = outcome.op()
    with tracer.span("evaluate_corpus", work=len(examples)):
        report = evaluate_corpus(generated, gold)
    outcome.check(op, checks.rouge_matches_reference(report, generated, gold))


def run(seed: int, seconds: float, tracer, outcome, workdir) -> dict[str, list[tuple[float, float]]]:
    """Samples per kind, each (wall seconds, scaled seconds) per item.
    `seed` is not used: the inputs are the walkthrough's (see CORPUS_SEED)."""
    clock = make_clock()
    setup_seconds, state = [], None
    for _ in range(SETUPS):
        sample = [0.0, 0.0]
        with clock.timed(sample):
            state = set_up(tracer)
        setup_seconds.append((sample, 1))
    samples: dict[str, list[tuple[list[float], int]]] = {"setup": setup_seconds, "train": [],
                                                         "abstract": []}
    started = perf_counter()
    while True:
        pipeline(state, clock, tracer, outcome, workdir, samples)
        if perf_counter() - started >= seconds:
            return {kind: clock.results(pending) for kind, pending in samples.items()}
        state = set_up(tracer)          # a further round starts from fresh models

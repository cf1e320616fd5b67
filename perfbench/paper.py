"""Paper-size workload: beam-5 generation from a checkpoint, then training steps.

Sizes are the config defaults (V=50,000, E=300, H=512; 48.1M parameters)
with 3 topics.  Each record has one 200-token random paragraph per topic,
10 of whose tokens (5%) are out of vocabulary, and a gold abstract of 3
sentences of 15 tokens, 2 of them copied OOV tokens.  At this size large
matrix products dominate: the [512, 50000] output projection at every
decoder step, attention over 600 tokens, and in training the backward
sweep over dense V-sized tables and Adam over every parameter.
"""

from __future__ import annotations

import dataclasses
import string
from time import perf_counter

import numpy as np

from topicsum import autodiff as ad
from topicsum import checkpoint, generator
from topicsum.corpus import SummarizationExample, Topic, TopicSchema
from topicsum.generator import DecodeConfig
from topicsum.rouge import dedup_sentences
from topicsum.text import EOS_ID, Vocabulary

import checks
from common import HostClock, train_step

VOCAB_SIZE, EMBED, HIDDEN, N_TOPICS = 50_000, 300, 512, 3
RECORDS = 2
PARAGRAPH_TOKENS, OOV_PER_PARAGRAPH = 200, 10
SENTENCES, SENTENCE_TOKENS, GOLD_OOV_PER_SENTENCE = 3, 15, 2
ASSIGNMENT = (0, 1, 2)          # one paragraph per topic, no detector
# the stop bias and the EOS logit bias, pinned so that every abstract is
# exactly SENTENCES x SENTENCE_TOKENS and the work stays fixed
PINNED_BIAS = -1e4
DECODE = DecodeConfig(topic_mode="soft", beam_size=5, max_sentences=SENTENCES,
                      max_sentence_tokens=SENTENCE_TOKENS)
LR = 1e-4                       # the config's generator_lr_first
SETUPS = 3
MIN_PASSES = 2                  # every record generated at least twice
FD_EPS, FD_TOL = 1e-2, 1e-3     # measured error about 1e-5 at this eps
PROBE_REFERENCE_S = 0.02
WARMUP_TOKENS = 3


@dataclasses.dataclass
class State:
    vocab: Vocabulary
    schema: TopicSchema
    records: list[SummarizationExample]
    model: generator.GeneratorModel
    optimizer: ad.Adam


def make_inputs(seed: int):
    """Vocabulary, schema and records drawn from `seed`."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(VOCAB_SIZE - 4)]
    vocab = Vocabulary(words)
    schema = TopicSchema(domain="paper", topics=[Topic(name=f"topic{k}", labels=frozenset({f"topic{k}"}))
                                                  for k in range(N_TOPICS)])
    letters = np.array(list(string.ascii_lowercase))
    records = []
    for r in range(RECORDS):
        paragraphs, abstract = [], []
        for _ in range(N_TOPICS):
            tokens = [words[i] for i in rng.integers(0, len(words), PARAGRAPH_TOKENS)]
            oov = ["q" + "".join(rng.choice(letters, 7)) for _ in range(OOV_PER_PARAGRAPH)]
            for position, token in zip(rng.choice(PARAGRAPH_TOKENS, OOV_PER_PARAGRAPH, replace=False), oov):
                tokens[position] = token
            in_vocab = [t for t in tokens if t in vocab]
            sentence = [in_vocab[i] for i in rng.integers(0, len(in_vocab), SENTENCE_TOKENS)]
            for position in rng.choice(SENTENCE_TOKENS, GOLD_OOV_PER_SENTENCE, replace=False):
                sentence[position] = oov[rng.integers(OOV_PER_PARAGRAPH)]
            paragraphs.append(tokens)
            abstract.append(sentence)
        records.append(SummarizationExample(
            title=f"record{r}", paragraph_tokens=paragraphs,
            paragraph_ids=[vocab.encode(p) for p in paragraphs],
            abstract_tokens=abstract, abstract_ids=[vocab.encode(s) for s in abstract]))
    return vocab, schema, records


def make_clock() -> HostClock:
    """The probe fills a fresh 64 MB array, as the backward sweep and model
    construction fill fresh dense tables; its run median follows the
    host's speed phases at this size, its single readings do not."""
    def probe():
        block = np.empty(16_000_000, np.float32)
        block.fill(0.5)
        block *= 1.5
        return float(block[::4096].sum())
    return HostClock(probe, PROBE_REFERENCE_S, per_item=False)


def pin(model, value: float) -> None:
    model.stop_b.data[...] = value
    model.out_vocab_b.data[0, EOS_ID] = value


def set_up(seed: int, ckpt, tracer) -> State:
    """Inputs, then the model as `topicsum generate` builds it: seeded
    construction, then every tensor loaded from the checkpoint."""
    vocab, schema, records = make_inputs(seed)
    with tracer.span("GeneratorModel"):
        model = generator.GeneratorModel(VOCAB_SIZE, N_TOPICS, EMBED, HIDDEN, seed=seed)
    with tracer.span("load_into"):
        checkpoint.load_into(model.parameters(), ckpt)
    return State(vocab, schema, records, model, ad.Adam(model.parameters(), lr=LR))


def generate(state: State, seconds: float, clock, tracer, outcome) -> list[tuple[list[float], int]]:
    """An untimed greedy abstract checked against teacher forcing, then
    whole passes of beam-5 abstracts over the records for `seconds` (at
    least MIN_PASSES, so every record is generated again)."""
    model, vocab, schema = state.model, state.vocab, state.schema
    first = state.records[0]
    greedy = generator.generate_abstract(model, first.paragraph_tokens, list(ASSIGNMENT), schema,
                                         vocab, dataclasses.replace(DECODE, beam_size=1))
    op = outcome.op()
    outcome.check(op, checks.abstract_shape(greedy, SENTENCES, SENTENCE_TOKENS))
    outcome.check(op, checks.greedy_follows_teacher_forcing(
        model, first.paragraph_tokens, list(ASSIGNMENT), schema, vocab, greedy,
        DECODE.topic_mode, DECODE.ttg_cap, SENTENCE_TOKENS))

    samples: list[tuple[list[float], int]] = []
    outputs: dict[int, list[list[str]]] = {}
    started, passes = perf_counter(), 0
    while passes < MIN_PASSES or perf_counter() - started < seconds:
        for index, record in enumerate(state.records):
            sample = [0.0, 0.0]
            with clock.timed(sample), tracer.item("abstract", timed=True):
                assignment = list(ASSIGNMENT)
                sentences = generator.generate_abstract(model, record.paragraph_tokens, assignment,
                                                        schema, vocab, DECODE)
                with tracer.span("dedup_sentences"):
                    abstract = dedup_sentences(sentences)
            samples.append((sample, 1))
            op = outcome.op()
            outcome.check(op, checks.abstract_shape(sentences, SENTENCES, SENTENCE_TOKENS))
            inputs = {token for paragraph in record.paragraph_tokens for token in paragraph}
            outcome.check(op, checks.tokens_known(sentences, vocab, inputs))
            if index in outputs:
                outcome.check(op, checks.same_output(outputs[index], abstract))
            else:
                outputs[index] = abstract
        passes += 1
    return samples


def train(state: State, seconds: float, clock, tracer, outcome) -> list[tuple[list[float], int]]:
    """A warm-up step that carries the gradient and Adam checks, then timed
    steps on one record for `seconds` (at least one).

    The warm-up example is the record with one gold sentence of
    WARMUP_TOKENS tokens: every parameter still gets a gradient and Adam
    touches all its moments, at a fifth of the cost.
    """
    model, vocab, schema, optimizer = state.model, state.vocab, state.schema, state.optimizer
    pin(model, 0.0)             # both biases start at zero in a fresh model
    record = state.records[0]
    warmup = dataclasses.replace(record, abstract_tokens=[record.abstract_tokens[0][:WARMUP_TOKENS]],
                                 abstract_ids=[record.abstract_ids[0][:WARMUP_TOKENS]])
    params = model.parameters()

    def loss_of(example) -> float:
        return generator.example_loss(model, example, list(ASSIGNMENT), schema, vocab)[2].item()

    before: dict[str, np.ndarray] = {}
    warm = outcome.op()

    def check_gradient():
        outcome.check(warm, checks.directional_derivative(params, lambda: loss_of(warmup),
                                                          FD_EPS, FD_TOL))
        before.update((name, p.data.copy()) for name, p in params.items())

    with tracer.item("train", timed=False):
        train_step(model, optimizer, warmup, list(ASSIGNMENT), schema, vocab, tracer,
                   timed=False, before_update=check_gradient)
    outcome.check(warm, checks.adam_first_step(before, params, LR))
    before.clear()

    samples, losses, ops = [], [], []
    started = perf_counter()
    while not samples or perf_counter() - started < seconds:
        ops.append(outcome.op())
        sample = [0.0, 0.0]
        with clock.timed(sample), tracer.item("train", timed=True):
            losses.append(train_step(model, optimizer, record, list(ASSIGNMENT), schema, vocab,
                                     tracer, timed=True))
        samples.append((sample, 1))
    outcome.check(ops, checks.loss_decreased(losses[0], losses[1:] + [loss_of(record)]))
    return samples


def run(seed: int, seconds: float, tracer, outcome, workdir) -> dict[str, list[tuple[float, float]]]:
    """Samples per kind, each (wall seconds, scaled seconds) per item."""
    clock = make_clock()
    ckpt = workdir / "generator.ckpt"
    model = generator.GeneratorModel(VOCAB_SIZE, N_TOPICS, EMBED, HIDDEN, seed=seed)
    pin(model, PINNED_BIAS)
    checkpoint.save_tensors(ckpt, model.parameters())
    del model
    setup_seconds, state = [], None
    for _ in range(SETUPS):
        state = None            # release the previous set-up before timing the next
        sample = [0.0, 0.0]
        with clock.timed(sample):
            state = set_up(seed, ckpt, tracer)
        setup_seconds.append((sample, 1))
    abstracts = generate(state, seconds, clock, tracer, outcome)
    steps = train(state, seconds, clock, tracer, outcome)
    return {"setup": clock.results(setup_seconds), "train": clock.results(steps),
            "abstract": clock.results(abstracts)}

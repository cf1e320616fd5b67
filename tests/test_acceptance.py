"""Release acceptance gate.

Ten numbered end-to-end checks, one test per criterion; the summary hook in
conftest.py prints a PASS/FAIL line for each at the end of the run:

  1.  every autodiff op and a full generator loss pass finite differences
  2.  topic, attention, vocabulary, and output distributions normalize
  3.  with the copy gate saturated at 0, mass stays on input tokens only
  4.  hand-worked oracles for mixing, attention, output mixture, and losses
  5.  the generator overfits a 20-example toy corpus and reproduces it
  6.  the detector separates the keyword-disjoint toy articles
  7.  soft and hard topic mixing both run; soft scores at least comparably
  8.  ROUGE hand cases and near-duplicate dropping behave exactly
  9.  corpus construction is deterministic with non-increasing label ranks
  10. a checkpoint round trip regenerates byte-identical abstracts

The overfit model used by criteria 5, 7, and 10 is trained once per module.
"""

import math
import time

import numpy as np
import pytest

import topicsum.autodiff as ad
from conftest import check_gradients
from topicsum.checkpoint import load_into, save_tensors
from topicsum.corpus import (SummarizationExample, Topic, TopicSchema,
                             article_token_sequences, build_detector_dataset,
                             label_frequency_stats)
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder, evaluate_detector, train_detector
from topicsum.generator import (DecodeConfig, GeneratorModel, attention_keys, attention_step,
                                compute_losses, encode_topics, example_loss,
                                generate_abstract, group_paragraphs,
                                predict_topic_step, token_distribution,
                                train_generator)
from topicsum.rouge import dedup_sentences, evaluate_corpus, rouge_l, rouge_n
from topicsum.synthetic import toy_detector_articles, toy_schema, toy_summarization_corpus
from topicsum.text import Vocabulary

SUM_TOL = 1e-6
ORACLE_TOL = 1e-6


# ---------------------------------------------------------------------------
# shared random configurations (criteria 2 and 3)

def random_setup(index):
    """A fresh small model plus grouped random input, seeded by `index`."""
    rng = np.random.default_rng(5000 + index)
    n_topics = int(rng.integers(1, 5))
    hidden = int(rng.integers(3, 11))
    embed = int(rng.integers(2, 9))
    words = [f"w{j}" for j in range(int(rng.integers(3, 13)))]
    vocab = Vocabulary(words)
    schema = TopicSchema(domain="random",
                         topics=[Topic(name=f"t{k}", labels=frozenset({f"t{k}"}))
                                 for k in range(n_topics)])
    model = GeneratorModel(len(vocab), n_topics, embed_dim=embed,
                           hidden_dim=hidden, seed=index)
    paragraphs = []
    assignments = []
    for _ in range(int(rng.integers(1, 5))):
        tokens = []
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.25:
                tokens.append(f"oov{int(rng.integers(0, 4))}")
            else:
                tokens.append(words[int(rng.integers(0, len(words)))])
        paragraphs.append(tokens)
        assignments.append(int(rng.integers(0, n_topics + 1)))  # n_topics = NOISE
    assignments[0] = 0  # keep at least one group non-empty
    grouped = group_paragraphs(paragraphs, assignments, schema, vocab, cap=16)
    encoding = encode_topics(model, grouped)
    return rng, model, vocab, grouped, encoding


# ---------------------------------------------------------------------------
# the overfit run shared by criteria 5, 7, and 10

@pytest.fixture(scope="module")
def overfit_run():
    corpus = toy_summarization_corpus(20, seed=0)
    model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                           embed_dim=48, hidden_dim=64, seed=0)
    started = time.perf_counter()
    history = train_generator(model, corpus.examples, corpus.assignments, [], [],
                              corpus.schema, corpus.vocab, epochs=60,
                              lr_first=2e-3, lr_rest=2e-3, seed=0)
    config = DecodeConfig(topic_mode="soft", beam_size=1,
                          max_sentences=6, max_sentence_tokens=10)
    generated = [generate_abstract(model, ex.paragraph_tokens, assignment,
                                   corpus.schema, corpus.vocab, config)
                 for ex, assignment in zip(corpus.examples, corpus.assignments)]
    seconds = time.perf_counter() - started
    return {"corpus": corpus, "model": model, "history": history,
            "config": config, "generated": generated, "seconds": seconds}


# ---------------------------------------------------------------------------
# criterion 1: gradients

def test_01_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    with ad.using_dtype(np.float64):
        # part 1: every differentiable op against central differences
        x = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
        y = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
        w = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 2)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 2)), requires_grad=True)
        bias_row = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 4)), requires_grad=True)
        gate = ad.Tensor(rng.uniform(0.2, 0.8, size=(1, 1)), requires_grad=True)
        table = ad.Tensor(rng.uniform(-1.0, 1.0, size=(5, 3)), requires_grad=True)
        weights = ad.Tensor(rng.uniform(0.1, 0.9, size=(1, 4)), requires_grad=True)
        mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))  # constant
        narrow_mixer = ad.Tensor(mixer.data[:, :2])
        lookup_mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
        scatter_mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 6)))

        cases = {
            "add": lambda: ((ad.add(x, y) * mixer).sum(), {"x": x, "y": y}),
            "add_row_bias": lambda: ((ad.add(x, bias_row) * mixer).sum(),
                                     {"x": x, "bias_row": bias_row}),
            "add_scalar_tensor": lambda: ((ad.add(x, gate) * mixer).sum(),
                                          {"x": x, "gate": gate}),
            "mul": lambda: ((ad.mul(x, y) * mixer).sum(), {"x": x, "y": y}),
            "mul_gate": lambda: ((ad.mul(x, gate) * mixer).sum(), {"x": x, "gate": gate}),
            "matmul": lambda: ((ad.matmul(x, w) * narrow_mixer).sum(), {"x": x, "w": w}),
            "affine": lambda: ((ad.affine(x, w, b) * narrow_mixer).sum(),
                               {"x": x, "w": w, "b": b}),
            "tanh": lambda: ((ad.tanh(x) * mixer).sum(), {"x": x}),
            "sigmoid": lambda: ((ad.sigmoid(x) * mixer).sum(), {"x": x}),
            "softmax1": lambda: ((ad.softmax(x, axis=1) * mixer).sum(), {"x": x}),
            "softmax0": lambda: ((ad.softmax(x, axis=0) * mixer).sum(), {"x": x}),
            "log": lambda: ((ad.log(ad.sigmoid(x), floor=1e-12) * mixer).sum(), {"x": x}),
            "transpose": lambda: ((ad.transpose(x) * ad.Tensor(mixer.data.T)).sum(),
                                  {"x": x}),
            "concat0": lambda: ((ad.concat([x, y], axis=0)
                                 * ad.Tensor(np.vstack([mixer.data, mixer.data]))).sum(),
                                {"x": x, "y": y}),
            "concat1": lambda: ((ad.concat([x, y], axis=1)
                                 * ad.Tensor(np.hstack([mixer.data, mixer.data]))).sum(),
                                {"x": x, "y": y}),
            "rows": lambda: ((ad.rows(x, 1, 3) * ad.Tensor(mixer.data[1:3])).sum(),
                             {"x": x}),
            "pick": lambda: (ad.pick(x, 2, 1), {"x": x}),
            "embedding": lambda: ((ad.embedding_lookup(table, [4, 0, 4, 2])
                                   * lookup_mixer).sum(), {"table": table}),
            "scatter": lambda: ((ad.scatter_sum(weights, [0, 2, 2, 5], 6)
                                 * scatter_mixer).sum(), {"weights": weights}),
            "sum": lambda: (x.sum(), {"x": x}),
            "mean": lambda: (x.mean(), {"x": x}),
        }
        for name, build in cases.items():
            _, params = build()
            check_gradients(lambda build=build: build()[0], params)

        # part 2: a full generator teacher-forced loss, every parameter entry
        words = [f"w{j}" for j in range(16)]
        vocab = Vocabulary(words)  # 4 reserved slots + 16 words = 20
        schema = TopicSchema(domain="tiny",
                             topics=[Topic(name="one", labels=frozenset({"one"})),
                                     Topic(name="two", labels=frozenset({"two"}))])
        model = GeneratorModel(len(vocab), 2, embed_dim=8, hidden_dim=8, seed=11)
        paragraphs = [["w0", "w1", "zork", "w3"], ["w5", "w6", "w7"]]
        abstract = [["w0", "zork", "w5"], ["w6", "w1"]]
        example = SummarizationExample(
            title="tiny", paragraph_tokens=paragraphs,
            paragraph_ids=[vocab.encode(p) for p in paragraphs],
            abstract_tokens=abstract,
            abstract_ids=[vocab.encode(s) for s in abstract])
        check_gradients(
            lambda: example_loss(model, example, [0, 1], schema, vocab)[2],
            model.parameters())
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# criterion 2: normalization

def test_02_distribution_normalization():
    for index in range(100):
        rng, model, vocab, grouped, encoding = random_setup(index)
        state = ad.Tensor(rng.normal(size=(1, model.hidden_dim)) * 0.5)
        context = ad.Tensor(rng.normal(size=(1, model.hidden_dim)) * 0.5)
        mode = "soft" if index % 2 == 0 else "hard"
        step = predict_topic_step(model, state, context, encoding.topic_vectors, mode)
        assert abs(float(step.topic_probs.data.sum()) - 1.0) <= SUM_TOL
        weights, attn_context = attention_step(
            model, step.decoder_init, encoding.token_states,
            attention_keys(model, encoding.token_states))
        assert abs(float(weights.data.sum()) - 1.0) <= SUM_TOL
        x = ad.embedding_lookup(model.embed, [int(rng.integers(0, len(vocab)))])
        mixture = token_distribution(model, step.decoder_init, attn_context,
                                     x, weights, grouped)
        assert abs(float(mixture.data.sum()) - 1.0) <= SUM_TOL
        # saturate the gate so the mixture reduces to the vocabulary softmax
        model.gate_b.data[...] = 1e9
        vocab_only = token_distribution(model, step.decoder_init, attn_context,
                                        x, weights, grouped)
        assert abs(float(vocab_only.data.sum()) - 1.0) <= SUM_TOL


# ---------------------------------------------------------------------------
# criterion 3: pure-copy mass

def test_03_copy_only_mass_stays_on_input():
    for index in range(100):
        rng, model, vocab, grouped, encoding = random_setup(200 + index)
        for tensor in (model.gate_context_W, model.gate_state_W, model.gate_input_W):
            tensor.data[...] = 0.0
        model.gate_b.data[...] = -1e9  # sigmoid saturates at exactly 0
        state = ad.Tensor(rng.normal(size=(1, model.hidden_dim)) * 0.5)
        weights, context = attention_step(model, state, encoding.token_states,
                                          attention_keys(model, encoding.token_states))
        x = ad.embedding_lookup(model.embed, [int(rng.integers(0, len(vocab)))])
        mixture = token_distribution(model, state, context, x, weights, grouped)
        off_input = np.ones(grouped.extended_size, dtype=bool)
        for group in grouped.groups:
            for extended_id in group.extended_ids:
                off_input[extended_id] = False
        assert off_input.any()  # reserved ids are never input tokens
        assert not np.any(mixture.data[0, off_input])
        assert abs(float(mixture.data.sum()) - 1.0) <= SUM_TOL


# ---------------------------------------------------------------------------
# criterion 4: hand-worked oracles

def test_04_hand_worked_oracles():
    with ad.using_dtype(np.float64):
        # uniform topic mixing: q=[0.5, 0.5] over rows [1,0] and [0,1]
        model = GeneratorModel(6, 2, embed_dim=2, hidden_dim=2, seed=1)
        model.topic_W.data[...] = 0.0
        model.topic_b.data[...] = 0.0
        rows = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
        step = predict_topic_step(model, ad.zeros((1, 2)), ad.zeros((1, 2)),
                                  rows, "soft")
        np.testing.assert_allclose(step.topic_probs.data, [[0.5, 0.5]], atol=ORACLE_TOL)
        np.testing.assert_allclose(step.topic_context.data, [[0.5, 0.5]], atol=ORACLE_TOL)

        # decoder init is state plus topic context: [1,2] + [3,4] = [4,6]
        # (the update gate is saturated so the GRU passes its state through)
        model = GeneratorModel(6, 1, embed_dim=2, hidden_dim=2, seed=2)
        model.pred_cell.W_z.data[...] = 0.0
        model.pred_cell.U_z.data[...] = 0.0
        model.pred_cell.b_z.data[...] = 1e9
        step = predict_topic_step(model, ad.Tensor([[1.0, 2.0]]), ad.zeros((1, 2)),
                                  ad.Tensor([[3.0, 4.0]]), "soft")
        np.testing.assert_allclose(step.state.data, [[1.0, 2.0]], atol=ORACLE_TOL)
        np.testing.assert_allclose(step.decoder_init.data, [[4.0, 6.0]], atol=ORACLE_TOL)

        # attention with rigged scores (0, ln 3): weights [0.25, 0.75] and
        # context = 0.25 u1 + 0.75 u2
        model = GeneratorModel(6, 1, embed_dim=2, hidden_dim=2, seed=3)
        model.attn_token_W.data[...] = [[1.0, 0.0], [0.0, 0.0]]
        model.attn_state_W.data[...] = 0.0
        model.attn_b.data[...] = 0.0
        model.attn_v.data[...] = [[2.0], [0.0]]
        second = float(np.arctanh(np.log(3.0) / 2.0))  # 2 tanh(second) = ln 3
        token_states = ad.Tensor([[0.0, 7.0], [second, -3.0]])
        weights, context = attention_step(model, ad.zeros((1, 2)), token_states,
                                          attention_keys(model, token_states))
        np.testing.assert_allclose(weights.data, [[0.25], [0.75]], atol=ORACLE_TOL)
        np.testing.assert_allclose(context.data,
                                   [[0.75 * second, 0.25 * 7.0 - 0.75 * 3.0]],
                                   atol=ORACLE_TOL)

        # output mixture: vocab softmax [0.6, 0.4] on {a, b}, gate 0.5, the
        # single input token b carrying all attention -> P(a)=0.3, P(b)=0.7
        vocab = Vocabulary(["a", "b"])
        schema = TopicSchema(domain="pair",
                             topics=[Topic(name="only", labels=frozenset({"only"}))])
        model = GeneratorModel(len(vocab), 1, embed_dim=2, hidden_dim=2, seed=4)
        model.out_hidden_W.data[...] = 0.0
        model.out_hidden_b.data[...] = 0.0
        model.out_vocab_W.data[...] = 0.0
        model.out_vocab_b.data[...] = -1e9
        model.out_vocab_b.data[0, vocab.token_to_id("a")] = math.log(0.6)
        model.out_vocab_b.data[0, vocab.token_to_id("b")] = math.log(0.4)
        for tensor in (model.gate_context_W, model.gate_state_W, model.gate_input_W):
            tensor.data[...] = 0.0
        model.gate_b.data[...] = 0.0  # sigmoid(0) = 1/2
        grouped = group_paragraphs([["b"]], [0], schema, vocab, cap=4)
        mixture = token_distribution(model, ad.zeros((1, 2)), ad.zeros((1, 2)),
                                     ad.embedding_lookup(model.embed,
                                                         [vocab.token_to_id("b")]),
                                     ad.Tensor([[1.0]]), grouped)
        assert abs(float(mixture.data[0, vocab.token_to_id("a")]) - 0.3) <= ORACLE_TOL
        assert abs(float(mixture.data[0, vocab.token_to_id("b")]) - 0.7) <= ORACLE_TOL

        # per-token NLL of a uniform distribution over 50000 words is ln 50000
        uniform = ad.Tensor(np.full((1, 50000), 1.0 / 50000))
        go_on = ad.Tensor([[0.0]])
        halt = ad.Tensor([[1.0]])
        sentence_loss, stop_loss, total = compute_losses(
            [[uniform]], [[777]], [go_on, halt])
        assert abs(sentence_loss.item() - math.log(50000.0)) <= ORACLE_TOL
        assert stop_loss.item() == 0.0

        # perfect predictions cost exactly zero
        sure = np.zeros((1, 10))
        sure[0, 4] = 1.0
        _, _, total = compute_losses([[ad.Tensor(sure)]], [[4]], [go_on, halt])
        assert total.item() == 0.0

        # one sentence with both stop probabilities at 0.5 costs ln 2
        half = ad.Tensor([[0.5]])
        sentence_loss, stop_loss, total = compute_losses(
            [[ad.Tensor(sure)]], [[4]], [half, half])
        assert abs(stop_loss.item() - math.log(2.0)) <= ORACLE_TOL
        assert abs(total.item() - math.log(2.0)) <= ORACLE_TOL


# ---------------------------------------------------------------------------
# criterion 5: overfit recovery

def test_05_overfit_recovers_training_abstracts(overfit_run):
    corpus = overfit_run["corpus"]
    model = overfit_run["model"]
    generated = overfit_run["generated"]

    # token-weighted NLL; every toy gold sentence has the same token count,
    # so the per-sentence mean is already the per-token mean
    total_nll = 0.0
    total_tokens = 0
    for example, assignment in zip(corpus.examples, corpus.assignments):
        nll, _, _ = example_loss(model, example, assignment,
                                 corpus.schema, corpus.vocab)
        tokens = sum(len(sentence) + 1 for sentence in example.abstract_tokens)
        total_nll += nll.item() * tokens
        total_tokens += tokens
    assert total_nll / total_tokens < 0.1

    gold = [example.abstract_tokens for example in corpus.examples]
    report = evaluate_corpus(generated, gold)
    assert report.mean_rouge_l >= 0.95

    stop_matches = sum(1 for abstract, example in zip(generated, corpus.examples)
                       if len(abstract) == len(example.abstract_tokens))
    assert stop_matches >= 0.9 * len(corpus.examples)

    assert overfit_run["seconds"] < 600.0


# ---------------------------------------------------------------------------
# criterion 6: detector accuracy

def test_06_detector_held_out_accuracy():
    articles = toy_detector_articles(120, seed=0)
    schema = toy_schema()
    vocab = Vocabulary.build(article_token_sequences(articles), cap=500)
    splits = build_detector_dataset(articles, schema, vocab, seed=42)
    assert splits.train and splits.valid and splits.test
    rng = np.random.default_rng(0)
    encoder = MeanEmbeddingEncoder(len(vocab), 32, 32, rng)
    model = DetectorModel(encoder, len(schema.topics) + 1, rng)
    history = train_detector(model, splits.train, splits.valid, epochs=4, lr=3e-5)
    assert len(history) == 4
    metrics = evaluate_detector(model, splits.test)
    assert metrics.accuracy >= 0.95


# ---------------------------------------------------------------------------
# criterion 7: soft versus hard topic mixing

def test_07_soft_beats_or_ties_hard(overfit_run):
    corpus = overfit_run["corpus"]
    model = overfit_run["model"]
    hard_config = DecodeConfig(topic_mode="hard", beam_size=1,
                               max_sentences=6, max_sentence_tokens=10)
    hard_generated = [generate_abstract(model, ex.paragraph_tokens, assignment,
                                        corpus.schema, corpus.vocab, hard_config)
                      for ex, assignment in zip(corpus.examples, corpus.assignments)]
    gold = [example.abstract_tokens for example in corpus.examples]
    soft_score = evaluate_corpus(overfit_run["generated"], gold).mean_rouge_l
    hard_score = evaluate_corpus(hard_generated, gold).mean_rouge_l
    assert any(abstract for abstract in overfit_run["generated"])
    assert any(abstract for abstract in hard_generated)
    assert soft_score >= hard_score - 0.02


# ---------------------------------------------------------------------------
# criterion 8: ROUGE oracles and near-duplicate dropping

def test_08_rouge_hand_cases_and_dedup():
    same = "the cat sat on the mat".split()
    assert rouge_n(same, same, 1).f1 == 1.0
    assert rouge_l(same, same).f1 == 1.0
    assert rouge_n(["a", "b"], ["c", "d"], 1).f1 == 0.0
    assert rouge_l(["a", "b"], ["c", "d"]).f1 == 0.0
    # equal-length pair with a common subsequence of 4 of 5 tokens
    assert rouge_l("a b c d e".split(), "a b c d f".split()).f1 == pytest.approx(0.8, abs=1e-12)

    # two of three unique tokens shared: ratio 2/3 > 1/2, so the later
    # sentence is dropped; a disjoint sentence survives
    sentences = [["a", "b", "c"], ["a", "b", "x"], ["p", "q", "r"]]
    deduped = dedup_sentences(sentences)
    assert deduped == [["a", "b", "c"], ["p", "q", "r"]]
    assert dedup_sentences(deduped) == deduped


# ---------------------------------------------------------------------------
# criterion 9: corpus determinism

def test_09_corpus_build_determinism():
    def build_once():
        articles = toy_detector_articles(60, seed=3)
        vocab = Vocabulary.build(article_token_sequences(articles), cap=500)
        splits = build_detector_dataset(articles, toy_schema(), vocab, seed=42)
        return splits, label_frequency_stats(articles)

    first_splits, first_stats = build_once()
    second_splits, second_stats = build_once()
    for name in ("train", "valid", "test"):
        assert getattr(first_splits, name) == getattr(second_splits, name)
        assert len(getattr(first_splits, name)) == len(getattr(second_splits, name))
    assert first_stats == second_stats
    counts = [count for _, _, count in first_stats]
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# criterion 10: checkpoint integrity

def test_10_checkpoint_round_trip_generation(overfit_run, tmp_path):
    corpus = overfit_run["corpus"]
    model = overfit_run["model"]
    path = tmp_path / "generator.ckpt"
    save_tensors(path, model.parameters())
    clone = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                           embed_dim=48, hidden_dim=64, seed=987)
    load_into(clone.parameters(), path)
    regenerated = [generate_abstract(clone, ex.paragraph_tokens, assignment,
                                     corpus.schema, corpus.vocab, overfit_run["config"])
                   for ex, assignment in zip(corpus.examples, corpus.assignments)]
    assert regenerated == overfit_run["generated"]

    def render(abstracts):
        return "\n".join(" ".join(sentence) for abstract in abstracts
                         for sentence in abstract).encode("utf-8")

    assert render(regenerated) == render(overfit_run["generated"])

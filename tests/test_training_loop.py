"""Both trainers run through `autodiff.fit`; each must reproduce, bit for bit,
the loop it used to write out itself.

The two reference loops below are those loops, kept as they were: a
seeded permutation per epoch, one tape per example, Adam, a history row and
the best-epoch snapshot and restore.  Parameters and history (without
`wall_seconds`) must be equal, with and without a validation set; the
gradient norm, which the references take in float64, to within float32
rounding.

`ReferenceAdam` is Adam without chunks: the same expressions over whole
parameters.  `fit` steps with the chunked `Adam` must leave parameters and
both moments bitwise equal to it.
"""

import time

import numpy as np
import pytest

import topicsum.autodiff as ad
from topicsum.corpus import article_token_sequences, build_detector_dataset
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder, _example_nll, train_detector
from topicsum.generator import GeneratorModel, example_loss, train_generator
from topicsum.synthetic import toy_detector_articles, toy_schema, toy_summarization_corpus
from topicsum.text import Vocabulary


class ReferenceAdam:
    """Adam through two scratch buffers of the largest parameter's size."""

    def __init__(self, params, lr):
        self.params, self.lr, self.beta1, self.beta2, self.eps = dict(params), lr, 0.9, 0.999, 1e-8
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        largest = max(p.data.size for p in self.params.values())
        dtype = np.result_type(*[p.data for p in self.params.values()])
        self.scratch = (np.empty(largest, dtype=dtype), np.empty(largest, dtype=dtype))

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g, m, v = p.grad, self.m[name], self.v[name]
            a, b = (buffer[:p.data.size].reshape(p.data.shape) for buffer in self.scratch)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v += a
            np.divide(m, 1.0 - self.beta1 ** t, out=a)
            np.divide(v, 1.0 - self.beta2 ** t, out=b)
            a *= self.lr
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def gradient_norm(params):
    return float(np.sqrt(sum(np.square(p.grad, dtype=np.float64).sum()
                             for p in params.values())))


def reference_train_detector(model, train, valid, epochs, lr, seed):
    def accuracy(examples):
        if not examples:
            return float("nan")
        hits = sum(1 for ex in examples
                   if int(np.argmax(model.logits(ex.token_ids).data)) == ex.topic_index)
        return hits / len(examples)

    rng = np.random.default_rng(seed)
    optimizer = ad.Adam(model.parameters(), lr=lr)
    history = []
    best_score = -float("inf")
    best_state = {}
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        losses, norms = [], []
        for index in rng.permutation(len(train)):
            with ad.tape() as recording:
                loss = _example_nll(model, train[index])
                recording.backward(loss)
            norms.append(gradient_norm(optimizer.params))
            optimizer.step()
            optimizer.zero_grad()
            losses.append(loss.item())
        valid_accuracy = accuracy(valid)
        history.append({"epoch": epoch, "lr": lr, "train_loss": float(np.mean(losses)),
                        "grad_norm": float(np.mean(norms)),
                        "valid_accuracy": valid_accuracy,
                        "wall_seconds": time.perf_counter() - started})
        score = valid_accuracy if valid else -float(np.mean(losses))
        if score > best_score:
            best_score = score
            best_state = {name: p.data.copy() for name, p in model.parameters().items()}
    if best_state:
        for name, p in model.parameters().items():
            p.data[...] = best_state[name]
    return history


def reference_train_generator(model, train, train_assignments, valid, valid_assignments,
                              schema, vocab, epochs, lr_first, lr_rest, seed,
                              stop_weight=1.0, ttg_cap=400):
    def valid_loss():
        if not valid:
            return float("nan")
        totals = []
        for example, assignment in zip(valid, valid_assignments):
            _, _, total = example_loss(model, example, assignment, schema, vocab,
                                       stop_weight=stop_weight, ttg_cap=ttg_cap)
            totals.append(total.item())
        return float(np.mean(totals))

    rng = np.random.default_rng(seed)
    optimizer = ad.Adam(model.parameters(), lr=lr_first)
    history = []
    best_loss = float("inf")
    best_state = {}
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        optimizer.lr = lr_first if epoch == 1 else lr_rest
        train_totals, train_nlls, train_stops, norms = [], [], [], []
        for index in rng.permutation(len(train)):
            with ad.tape() as recording:
                nll, stop, total = example_loss(model, train[index], train_assignments[index],
                                                schema, vocab, stop_weight=stop_weight,
                                                ttg_cap=ttg_cap)
                recording.backward(total)
            norms.append(gradient_norm(optimizer.params))
            optimizer.step()
            optimizer.zero_grad()
            train_totals.append(total.item())
            train_nlls.append(nll.item())
            train_stops.append(stop.item())
        epoch_valid = valid_loss()
        history.append({"epoch": epoch, "lr": optimizer.lr,
                        "train_loss": float(np.mean(train_totals)),
                        "train_nll": float(np.mean(train_nlls)),
                        "train_stop": float(np.mean(train_stops)),
                        "grad_norm": float(np.mean(norms)),
                        "valid_loss": epoch_valid,
                        "wall_seconds": time.perf_counter() - started})
        score = epoch_valid if valid else float(np.mean(train_totals))
        if score < best_loss:
            best_loss = score
            best_state = {name: p.data.copy() for name, p in model.parameters().items()}
    if best_state:
        for name, p in model.parameters().items():
            p.data[...] = best_state[name]
    return history


def assert_same_run(model, history, reference, reference_history):
    assert list(map(list, history)) == list(map(list, reference_history))  # same keys, order
    np.testing.assert_allclose([row["grad_norm"] for row in history],
                               [row["grad_norm"] for row in reference_history], rtol=1e-5)
    inexact = ("wall_seconds", "grad_norm")
    strip = [{k: v for k, v in row.items() if k not in inexact} for row in history]
    expected = [{k: v for k, v in row.items() if k not in inexact} for row in reference_history]
    np.testing.assert_equal(strip, expected)                      # nan == nan
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, reference.parameters()[name].data), name


@pytest.fixture(scope="module")
def detector_task():
    articles = toy_detector_articles(n_articles=40, seed=0)
    schema = toy_schema()
    vocab = Vocabulary.build(article_token_sequences(articles), cap=500)
    return vocab, schema, build_detector_dataset(articles, schema, vocab, seed=42)


@pytest.mark.parametrize("with_valid", [True, False])
def test_detector_matches_reference_loop(detector_task, with_valid):
    vocab, schema, splits = detector_task
    valid = splits.valid if with_valid else []

    def make():
        rng = np.random.default_rng(0)
        return DetectorModel(MeanEmbeddingEncoder(len(vocab), 16, 16, rng), schema.n_classes, rng)

    # with validation, accuracy is 1.0 from epoch 1 on, so epoch 1 is restored
    model, reference = make(), make()
    history = train_detector(model, splits.train, valid, epochs=4, lr=0.5, seed=3)
    expected = reference_train_detector(reference, splits.train, valid, epochs=4, lr=0.5, seed=3)
    assert_same_run(model, history, reference, expected)


@pytest.mark.parametrize("with_valid", [True, False])
def test_generator_matches_reference_loop(with_valid):
    corpus = toy_summarization_corpus(n_examples=8, seed=0)
    train, train_assignments = corpus.examples[:6], corpus.assignments[:6]
    valid, valid_assignments = ((corpus.examples[6:], corpus.assignments[6:]) if with_valid
                                else ([], []))

    def make():
        return GeneratorModel(len(corpus.vocab), len(corpus.schema.topics), embed_dim=8,
                              hidden_dim=12, seed=1)

    # lr_rest 0.2 overshoots, so both runs restore epoch 1
    model, reference = make(), make()
    args = (train, train_assignments, valid, valid_assignments, corpus.schema, corpus.vocab)
    history = train_generator(model, *args, epochs=3, lr_first=2e-2, lr_rest=0.2, seed=5)
    expected = reference_train_generator(reference, *args, epochs=3, lr_first=2e-2,
                                         lr_rest=0.2, seed=5)
    assert_same_run(model, history, reference, expected)


@pytest.mark.parametrize("chunk", [ad.Adam.CHUNK, 37])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fit_steps_equal_unchunked_adam(monkeypatch, dtype, chunk):
    """Three `fit` steps on a toy generator; a chunk of 37 elements puts
    chunk boundaries inside every weight."""
    corpus = toy_summarization_corpus(n_examples=3, seed=0)
    optimizers = []

    class RecordingAdam(ad.Adam):
        CHUNK = chunk

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(ad, "Adam", RecordingAdam)
    with ad.using_dtype(dtype):
        model, reference = (GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                                           embed_dim=8, hidden_dim=12, seed=1)
                            for _ in range(2))

        def loss_of(net, index):
            return example_loss(net, corpus.examples[index], corpus.assignments[index],
                                corpus.schema, corpus.vocab)[2]

        ad.fit(model.parameters(), 3, lambda index: {"loss": loss_of(model, index)},
               lambda: ({}, None), label=str, epochs=1, lr=lambda epoch: 2e-2, seed=4)
        optimizer = ReferenceAdam(reference.parameters(), lr=2e-2)
        for index in np.random.default_rng(4).permutation(3):
            with ad.tape() as recording:
                recording.backward(loss_of(reference, index))
            optimizer.step()
            optimizer.zero_grad()
    (chunked,) = optimizers
    assert chunked.step_count == optimizer.step_count == 3
    for name, p in model.parameters().items():
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, reference.parameters()[name].data), name
        m, v = chunked.moments(name)
        assert np.array_equal(m, optimizer.m[name]), name
        assert np.array_equal(v, optimizer.v[name]), name

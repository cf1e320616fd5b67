"""Topic detector: encoder contract, gradients, training, and metrics."""

import numpy as np
import pytest

import topicsum.autodiff as ad
from conftest import check_gradients
from topicsum.corpus import TopicParagraphExample
from topicsum.detector import (
    DetectorModel,
    MeanEmbeddingEncoder,
    detect_topics,
    evaluate_detector,
    train_detector,
)


def make_model(vocab_size=20, embed_dim=8, hidden=8, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    encoder = MeanEmbeddingEncoder(vocab_size, embed_dim, hidden, rng)
    return DetectorModel(encoder, n_classes, rng)


def make_separable_examples(n_per_class=30, n_classes=3, seed=0):
    """Each class draws tokens from a disjoint id range, trivially separable."""
    rng = np.random.default_rng(seed)
    examples = []
    for topic in range(n_classes):
        low, high = 4 + topic * 5, 4 + (topic + 1) * 5
        for _ in range(n_per_class):
            length = int(rng.integers(3, 8))
            ids = tuple(int(i) for i in rng.integers(low, high, size=length))
            examples.append(TopicParagraphExample(topic_index=topic, token_ids=ids))
    order = rng.permutation(len(examples))
    return [examples[i] for i in order]


class TestEncoder:
    def test_output_shape(self):
        model = make_model()
        out = model.encoder.encode([4, 5, 6])
        assert out.data.shape == (1, 8)

    def test_empty_paragraph_encodes_bias_only(self):
        model = make_model()
        out = model.encoder.encode([])
        expected = np.tanh(model.encoder.proj_b.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_mean_is_order_invariant(self):
        model = make_model()
        a = model.encoder.encode([4, 5, 6]).data
        b = model.encoder.encode([6, 4, 5]).data
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_repeated_token_shifts_mean(self):
        model = make_model()
        a = model.encoder.encode([4, 5]).data
        b = model.encoder.encode([4, 4, 5]).data
        assert not np.allclose(a, b)


class TestDetectorModel:
    def test_logits_width_matches_classes(self):
        model = make_model(n_classes=5)
        assert model.logits([4, 5]).data.shape == (1, 5)

    def test_too_few_classes_rejected(self):
        rng = np.random.default_rng(0)
        encoder = MeanEmbeddingEncoder(10, 4, 4, rng)
        with pytest.raises(ValueError):
            DetectorModel(encoder, 1, rng)

    def test_parameter_names_are_prefixed(self):
        names = set(make_model().parameters())
        assert names == {"encoder.embed", "encoder.proj_W", "encoder.proj_b",
                         "cls_W", "cls_b"}

    def test_loss_gradients_match_finite_differences(self):
        with ad.using_dtype(np.float64):
            model = make_model(vocab_size=12, embed_dim=5, hidden=6, n_classes=3, seed=3)
            example = TopicParagraphExample(topic_index=1, token_ids=(4, 7, 4, 9))

            def loss():
                probs = ad.softmax(model.logits(example.token_ids), axis=1)
                return ad.mul(ad.log(ad.pick(probs, 0, example.topic_index),
                                     floor=1e-12), -1.0)

            check_gradients(loss, model.parameters())


class TestDetectTopics:
    def test_argmax_per_paragraph(self):
        model = make_model()
        # force known logits through the classifier bias
        model.cls_W.data[...] = 0.0
        model.encoder.proj_W.data[...] = 0.0
        model.cls_b.data[...] = [[0.1, 0.9, 0.2]]
        assert detect_topics([[4, 5], [6]], model) == [1, 1]

    def test_tie_breaks_to_lowest_index(self):
        model = make_model()
        model.cls_W.data[...] = 0.0
        model.encoder.proj_W.data[...] = 0.0
        model.cls_b.data[...] = [[0.5, 0.5, 0.1]]
        assert detect_topics([[4]], model) == [0]

    def test_empty_input_list(self):
        assert detect_topics([], make_model()) == []


class TestTraining:
    def test_learns_separable_data(self):
        model = make_model(vocab_size=20, embed_dim=8, hidden=8, n_classes=3, seed=1)
        examples = make_separable_examples(n_per_class=40, seed=5)
        train, valid = examples[:90], examples[90:]
        history = train_detector(model, train, valid, epochs=6, lr=2e-2, seed=11)
        assert len(history) == 6
        assert history[-1]["valid_accuracy"] >= 0.9
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_history_row_fields(self):
        model = make_model(seed=2)
        examples = make_separable_examples(n_per_class=5, seed=2)
        history = train_detector(model, examples[:12], examples[12:], epochs=2, lr=1e-3)
        for row_index, row in enumerate(history, start=1):
            assert row["epoch"] == row_index
            assert row["lr"] == pytest.approx(1e-3)
            assert row["train_loss"] > 0.0
            assert 0.0 <= row["valid_accuracy"] <= 1.0
            assert row["wall_seconds"] >= 0.0

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_detector(make_model(), [], [], epochs=1)

    def test_same_seed_reproduces_weights(self):
        examples = make_separable_examples(n_per_class=6, seed=3)

        def run():
            model = make_model(seed=4)
            train_detector(model, examples[:14], examples[14:], epochs=2, lr=1e-2, seed=9)
            return {k: v.data.copy() for k, v in model.parameters().items()}

        first, second = run(), run()
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_keeps_best_validation_checkpoint(self):
        # with a huge lr the last epoch is usually worse than the best one;
        # the returned model must score the best epoch's accuracy
        model = make_model(seed=6)
        examples = make_separable_examples(n_per_class=20, seed=6)
        train, valid = examples[:45], examples[45:]
        history = train_detector(model, train, valid, epochs=5, lr=5e-2, seed=3)
        best = max(row["valid_accuracy"] for row in history)
        final = evaluate_detector(model, valid).accuracy
        assert final == pytest.approx(best)

    def test_empty_validation_keeps_lowest_loss_epoch(self):
        # at lr 1.0 the loss rises again after epoch 2 and stays above 1 in
        # every epoch, so the score -loss never beats a best score of -1
        examples = make_separable_examples(n_per_class=10, seed=5)
        model = make_model(seed=0)
        history = train_detector(model, examples, [], epochs=3, lr=1.0, seed=0)
        losses = [row["train_loss"] for row in history]
        best_epoch = 1 + int(np.argmin(losses))
        assert best_epoch < 3 and min(losses) > 1.0
        reference = make_model(seed=0)
        train_detector(reference, examples, [], epochs=best_epoch, lr=1.0, seed=0)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reference.parameters()[name].data), name

    def test_nan_weight_stops_before_the_first_step(self):
        examples = make_separable_examples(n_per_class=5, seed=2)
        model = make_model(seed=2)
        model.cls_b.data[0, 1] = np.nan
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        first = np.random.default_rng(9).permutation(len(examples))[0]
        with pytest.raises(ValueError, match=f"epoch 1: non-finite loss nan on training example {first}$"):
            train_detector(model, examples, [], epochs=2, lr=1e-2, seed=9)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name], equal_nan=True), name


class TestEvaluation:
    def test_perfect_predictions(self):
        model = make_model(seed=1)
        examples = make_separable_examples(n_per_class=30, seed=5)
        train_detector(model, examples[:80], examples[80:], epochs=8, lr=2e-2, seed=1)
        metrics = evaluate_detector(model, examples[80:])
        assert metrics.n_examples == len(examples) - 80
        assert 0.9 <= metrics.accuracy <= 1.0

    def test_accuracy_by_hand(self):
        # classifier that always predicts topic 0
        model = make_model(n_classes=2)
        model.cls_W.data[...] = 0.0
        model.encoder.proj_W.data[...] = 0.0
        model.cls_b.data[...] = [[1.0, 0.0]]
        examples = [TopicParagraphExample(0, (4,)), TopicParagraphExample(0, (5,)),
                    TopicParagraphExample(1, (6,))]
        metrics = evaluate_detector(model, examples)
        assert metrics.accuracy == pytest.approx(2 / 3)
        assert metrics.n_examples == 3

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_detector(make_model(), [])

"""Abstract generator: grouping, encoding, attention, decoding, and losses.

Hand cases pin the arithmetic of the pointer-generator mixture and the
additive attention; recurrent layers are checked against plain numpy
re-implementations of the same equations; every trainable tensor is
checked against central finite differences through a full example loss.
"""

import hashlib
import sys
import threading
from functools import reduce

import numpy as np
import pytest

import topicsum.autodiff as ad
from conftest import check_gradients
from topicsum import generator
from topicsum.corpus import SummarizationExample, Topic, TopicSchema
from topicsum.generator import (
    DecodeConfig,
    GeneratorModel,
    GRUCell,
    TopicGroups,
    _beam_search,
    attention_keys,
    attention_step,
    beam_candidates,
    bigru_states,
    compute_losses,
    decode_sentence,
    decode_sentences,
    encode_topics,
    example_loss,
    generate_abstract,
    group_paragraphs,
    init_embeddings,
    predict_topic_step,
    teacher_forced_outputs,
    token_distribution,
    train_generator,
)
from topicsum.synthetic import toy_summarization_corpus
from topicsum.text import BOS_ID, EOS_ID, RESERVED_TOKENS, UNK_ID, Vocabulary


def make_schema(n_topics=2):
    names = ["History", "Product", "Location", "Reception"][:n_topics]
    return TopicSchema(domain="test", topics=[
        Topic(name=name, labels=frozenset({name.lower()})) for name in names])


def make_vocab():
    return Vocabulary(["alpha", "beta", "gamma", "delta", "."])


def make_model(vocab, n_topics=2, embed_dim=5, hidden_dim=4, seed=0):
    return GeneratorModel(vocab_size=len(vocab), n_topics=n_topics,
                          embed_dim=embed_dim, hidden_dim=hidden_dim, seed=seed)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def op_gru_step(cell, x, h):
    """The GRU update composed of tape ops, one record per op: an
    implementation of the cell independent of the fused `gru_sequence`."""
    update = ad.sigmoid(ad.affine(x, cell.W_z, cell.b_z) + ad.matmul(h, cell.U_z))
    reset = ad.sigmoid(ad.affine(x, cell.W_r, cell.b_r) + ad.matmul(h, cell.U_r))
    candidate = ad.tanh(ad.affine(x, cell.W_h, cell.b_h) + ad.matmul(reset * h, cell.U_h))
    return (1.0 - update) * candidate + update * h


def np_gru_step(cell, x, h):
    """The GRU update equations, written independently in numpy."""
    z = np_sigmoid(x @ cell.W_z.data + h @ cell.U_z.data + cell.b_z.data)
    r = np_sigmoid(x @ cell.W_r.data + h @ cell.U_r.data + cell.b_r.data)
    c = np.tanh(x @ cell.W_h.data + (r * h) @ cell.U_h.data + cell.b_h.data)
    return (1.0 - z) * c + z * h


def gather_block(x, rows, columns):
    """The [len(rows), len(columns)] block x[rows][:, columns], one `ad.pick`."""
    return ad.pick(x, *np.meshgrid(np.asarray(rows, dtype=np.int64),
                                   np.asarray(columns, dtype=np.int64), indexing="ij"))


def directed_states(cell, xs, h0, lengths, reverse):
    """`cell`'s states over the sequences stored in xs: a forward
    `ad.gru_sequence`, or with `reverse` the backward columns of an
    `ad.bigru_sequence` with `cell` in both directions, cut out with
    `gather_block`, so that the forward half adds exact zeros to every
    gradient."""
    weights = list(cell.parameters().values())
    if not reverse:
        return ad.gru_sequence(xs, h0, weights, lengths)
    hidden = h0.data.shape[1]
    return gather_block(ad.bigru_sequence(xs, h0, weights, weights, lengths),
                        range(xs.data.shape[0]), range(hidden, 2 * hidden))


class TestDecodeConfig:
    def test_defaults(self):
        config = DecodeConfig()
        assert config.topic_mode == "soft"
        assert config.beam_size == 5
        assert config.ttg_cap == 400

    @pytest.mark.parametrize("kwargs", [
        {"topic_mode": "fuzzy"},
        {"stop_threshold": 0.0},
        {"stop_threshold": 1.0},
        {"max_sentences": 0},
        {"max_sentence_tokens": 0},
        {"beam_size": 0},
        {"ttg_cap": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodeConfig(**kwargs)


class TestGroupParagraphs:
    def test_groups_by_topic_in_input_order(self):
        schema = make_schema()
        vocab = make_vocab()
        paragraphs = [["alpha", "beta"], ["gamma"], ["delta", "alpha"]]
        grouped = group_paragraphs(paragraphs, [0, 1, 0], schema, vocab)
        assert grouped.groups[0].tokens == ["alpha", "beta", "delta", "alpha"]
        assert grouped.groups[1].tokens == ["gamma"]
        assert grouped.extended_ids.size == 5
        assert grouped.oov_tokens == []

    def test_noise_paragraphs_dropped(self):
        schema = make_schema()
        grouped = group_paragraphs([["alpha"], ["beta"]], [schema.noise_index, 1],
                                   schema, make_vocab())
        assert len(grouped.groups[0]) == 0
        assert grouped.groups[1].tokens == ["beta"]

    def test_truncation_cap_applies_per_group(self):
        schema = make_schema()
        vocab = make_vocab()
        paragraphs = [["alpha"] * 30, ["beta"] * 30]
        grouped = group_paragraphs(paragraphs, [0, 0], schema, vocab, cap=40)
        assert len(grouped.groups[0]) == 40
        assert grouped.groups[0].tokens == ["alpha"] * 30 + ["beta"] * 10

    def test_oov_tokens_get_extended_ids_in_first_seen_order(self):
        schema = make_schema()
        vocab = make_vocab()
        paragraphs = [["zork", "alpha", "quux"], ["zork"]]
        grouped = group_paragraphs(paragraphs, [0, 1], schema, vocab)
        assert grouped.oov_tokens == ["zork", "quux"]
        v = len(vocab)
        assert grouped.groups[0].extended_ids == [v, vocab.token_to_id("alpha"), v + 1]
        assert grouped.groups[0].token_ids == [UNK_ID, vocab.token_to_id("alpha"), UNK_ID]
        assert grouped.groups[1].extended_ids == [v]  # same token, same id
        assert grouped.extended_size == v + 2

    def test_target_id_resolution(self):
        schema = make_schema()
        vocab = make_vocab()
        grouped = group_paragraphs([["zork", "alpha"]], [0], schema, vocab)
        assert grouped.target_id("alpha", vocab) == vocab.token_to_id("alpha")
        assert grouped.target_id("zork", vocab) == len(vocab)
        assert grouped.target_id("never-seen", vocab) == UNK_ID

    def test_length_mismatch_and_bad_assignment(self):
        schema = make_schema()
        vocab = make_vocab()
        with pytest.raises(ValueError, match="assignments"):
            group_paragraphs([["alpha"]], [0, 1], schema, vocab)
        with pytest.raises(ValueError, match="outside"):
            group_paragraphs([["alpha"]], [7], schema, vocab)
        with pytest.raises(ValueError, match="^truncation cap must be at least 1, got 0$"):
            group_paragraphs([["alpha"]], [0], schema, vocab, cap=0)


class TestGRUCell:
    def test_matches_numpy_equations(self):
        rng = np.random.default_rng(1)
        cell = GRUCell(3, 4, rng)
        x = rng.uniform(-1, 1, (1, 3)).astype(np.float32)
        h = rng.uniform(-1, 1, (1, 4)).astype(np.float32)
        got = cell.step(ad.Tensor(x), ad.Tensor(h)).data
        np.testing.assert_allclose(got, np_gru_step(cell, x, h), atol=1e-6)

    def test_weights_are_the_parameters_in_gru_sequence_order(self):
        cell = GRUCell(3, 4, np.random.default_rng(0))
        assert list(cell.parameters()) == ["W_z", "U_z", "b_z", "W_r", "U_r", "b_r",
                                           "W_h", "U_h", "b_h"]
        assert len(cell.weights) == 9
        assert all(w is p for w, p in zip(cell.weights, cell.parameters().values()))

    def test_zero_input_zero_state_stays_zero(self):
        # with zero biases the update is (1-z)*tanh(0) + z*0 = 0
        cell = GRUCell(3, 4, np.random.default_rng(0))
        out = cell.step(ad.zeros((1, 3)), ad.zeros((1, 4)))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradients_match_finite_differences(self):
        with ad.using_dtype(np.float64):
            rng = np.random.default_rng(2)
            cell = GRUCell(3, 4, rng)
            x = ad.Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)
            h = ad.Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
            mixer = ad.Tensor(rng.uniform(-1, 1, (1, 4)))
            params = dict(cell.parameters(), x=x, h=h)

            def loss():
                # two chained steps so the recurrent path is exercised
                return (cell.step(x, cell.step(x, h)) * mixer).sum()

            check_gradients(loss, params)


class TestGRUSequence:
    """The fused sequence op in both directions (the backward one through
    `bigru_sequence`), and `GRUCell.step` built on it, against the
    op-composed reference update `op_gru_step` (float64)."""

    def run(self, cell, xs, h0, mixer, reverse, how):
        """States and every leaf gradient of sum(states * mixer)."""
        length = xs.data.shape[0]
        leaves = dict(cell.parameters(), xs=xs, h0=h0)
        with ad.tape() as recording:
            if how == "sequence":
                states = directed_states(cell, xs, h0, [length], reverse)
            else:
                advance = cell.step if how == "step" else lambda x, h: op_gru_step(cell, x, h)
                rows = [None] * length
                state = h0
                for t in (reversed(range(length)) if reverse else range(length)):
                    state = advance(ad.rows(xs, t, t + 1), state)
                    rows[t] = state
                states = ad.concat(rows, axis=0)
            recording.backward((states * mixer).sum())
        grads = {name: leaf.grad.copy() for name, leaf in leaves.items()}
        for leaf in leaves.values():
            leaf.grad = None
        return states.data.copy(), grads

    def check(self, how, reverse):
        with ad.using_dtype(np.float64):
            for length in (1, 2, 7):
                rng = np.random.default_rng(3 + length)
                cell = GRUCell(3, 4, rng)
                xs = ad.Tensor(rng.uniform(-1, 1, (length, 3)), requires_grad=True)
                h0 = ad.Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
                mixer = ad.Tensor(rng.uniform(-1, 1, (length, 4)))
                got, got_grads = self.run(cell, xs, h0, mixer, reverse, how)
                want, want_grads = self.run(cell, xs, h0, mixer, reverse, "reference")
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
                assert set(got_grads) == set(want_grads) == set(cell.parameters()) | {"xs", "h0"}
                for name, grad in want_grads.items():
                    assert np.any(grad != 0.0), name
                    np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                               err_msg=f"{name}, length {length}")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_chained_steps(self, reverse):
        self.check("sequence", reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_step_equals_chained_steps(self, reverse):
        self.check("step", reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_block_equals_separate_sequences(self, reverse):
        """B equally long sequences stored one after another as one [B·T, D]
        block against B separate B = 1 runs: states and every gradient
        (float64)."""

        def run(cell, xs, h0, mixer):
            xs, h0 = ad.Tensor(xs, requires_grad=True), ad.Tensor(h0, requires_grad=True)
            leaves = dict(cell.parameters(), xs=xs, h0=h0)
            batch, length = h0.data.shape[0], xs.data.shape[0] // h0.data.shape[0]
            with ad.tape() as recording:
                states = directed_states(cell, xs, h0, [length] * batch, reverse)
                recording.backward((states * ad.Tensor(mixer)).sum())
            grads = {name: leaf.grad.copy() for name, leaf in leaves.items()}
            for leaf in leaves.values():
                leaf.grad = None
            return states.data.copy(), grads

        batch = 3
        with ad.using_dtype(np.float64):
            for length in (1, 7):
                rng = np.random.default_rng(30 + length)
                cell = GRUCell(3, 4, rng)
                xs = rng.uniform(-1, 1, (batch, length, 3))
                h0 = rng.uniform(-1, 1, (batch, 4))
                mixer = rng.uniform(-1, 1, (batch, length, 4))
                got, got_grads = run(cell, xs.reshape(batch * length, 3), h0,
                                     mixer.reshape(batch * length, 4))
                got = got.reshape(batch, length, 4)
                want_grads = {name: 0.0 for name in cell.parameters()}
                for b in range(batch):
                    want, grads = run(cell, xs[b], h0[b:b + 1], mixer[b])
                    np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-10)
                    np.testing.assert_allclose(
                        got_grads["xs"].reshape(batch, length, 3)[b], grads["xs"],
                        rtol=0, atol=1e-10, err_msg=f"xs, length {length}")
                    np.testing.assert_allclose(got_grads["h0"][b:b + 1], grads["h0"],
                                               rtol=0, atol=1e-10, err_msg=f"h0, length {length}")
                    for name in want_grads:
                        want_grads[name] = want_grads[name] + grads[name]
                for name, grad in want_grads.items():
                    assert np.any(grad != 0.0), name
                    np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                               err_msg=f"{name}, length {length}")

    def test_gradients_match_finite_differences(self):
        with ad.using_dtype(np.float64):
            rng = np.random.default_rng(8)
            cell = GRUCell(3, 4, rng)
            xs = ad.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            h0 = ad.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
            mixer = ad.Tensor(rng.uniform(-1, 1, (4, 4)))
            params = dict(cell.parameters(), xs=xs, h0=h0)
            check_gradients(lambda: (cell.sequence(xs, h0, [3, 1]) * mixer).sum(), params)

    def test_shape_mismatch_rejected(self):
        cell = GRUCell(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            cell.sequence(ad.zeros((0, 3)), ad.zeros((1, 4)), [0])
        with pytest.raises(ValueError):
            cell.sequence(ad.zeros((2, 5)), ad.zeros((1, 4)), [2])
        with pytest.raises(ValueError):
            cell.sequence(ad.zeros((2, 3)), ad.zeros((2, 4)), [2])
        with pytest.raises(ValueError):
            cell.step(ad.zeros((2, 3)), ad.zeros((1, 4)))


class TestPackedGRUSequence:
    """Sequences of different lengths, stored one after another, as one run
    of `ad.gru_sequence` against one run per sequence: states and every
    gradient (float64)."""

    # longest first, then lengths out of order and with ties
    LENGTHS = ((7, 3, 3, 1), (1, 7, 3, 3), (3, 1, 2))

    @staticmethod
    def run(cell, xs, h0, mixer, reverse, lengths):
        """States and every leaf gradient of sum(states * mixer)."""
        xs, h0 = ad.Tensor(xs, requires_grad=True), ad.Tensor(h0, requires_grad=True)
        leaves = dict(cell.parameters(), xs=xs, h0=h0)
        with ad.tape() as recording:
            states = directed_states(cell, xs, h0, lengths, reverse)
            recording.backward((states * ad.Tensor(mixer)).sum())
        grads = {name: leaf.grad.copy() for name, leaf in leaves.items()}
        for leaf in leaves.values():
            leaf.grad = None
        return states.data.copy(), grads

    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_one_run_per_sequence(self, reverse):
        for lengths in self.LENGTHS:
            ends = np.cumsum(lengths)
            rows = [slice(end - n, end) for n, end in zip(lengths, ends)]
            with ad.using_dtype(np.float64):
                rng = np.random.default_rng(40)
                cell = GRUCell(3, 4, rng)
                xs = rng.uniform(-1, 1, (sum(lengths), 3))
                mixer = rng.uniform(-1, 1, (sum(lengths), 4))
                h0 = rng.uniform(-1, 1, (len(lengths), 4))
                got, got_grads = self.run(cell, xs, h0, mixer, reverse, lengths)
                want_grads = {name: 0.0 for name in cell.parameters()}
                for b, at in enumerate(rows):
                    want, grads = self.run(cell, xs[at], h0[b:b + 1], mixer[at], reverse,
                                           [lengths[b]])
                    message = f"sequence {b} of {lengths}"
                    np.testing.assert_allclose(got[at], want, rtol=0, atol=1e-10,
                                               err_msg=message)
                    np.testing.assert_allclose(got_grads["xs"][at], grads["xs"], rtol=0,
                                               atol=1e-10, err_msg=f"xs, {message}")
                    np.testing.assert_allclose(got_grads["h0"][b:b + 1], grads["h0"], rtol=0,
                                               atol=1e-10, err_msg=f"h0, {message}")
                    for name in want_grads:
                        want_grads[name] = want_grads[name] + grads[name]
                for name, grad in want_grads.items():
                    assert np.any(grad != 0.0), name
                    np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                               err_msg=f"{name}, {lengths}")

    def test_packing_by_hand(self):
        # stored rows: sequence 0 is 0-1, sequence 1 is 2-4, sequence 2 is 5
        order, packed, unpacked = ad._packing(np.array([2, 3, 1]))
        assert order.tolist() == [1, 0, 2]
        assert packed.tolist() == [2, 0, 5, 3, 1, 4]     # step 0, then 1, then 2
        assert unpacked.tolist() == [1, 4, 0, 3, 5, 2]

    @pytest.mark.parametrize("lengths", [(2, 1, 2), (3, 0, 3), (2, 2), (4, 1, 1, 1),
                                         (3, 2, 1, 0)])
    def test_bad_lengths_rejected(self, lengths):
        cell = GRUCell(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="lengths"):
            ad.gru_sequence(ad.zeros((6, 3)), ad.zeros((3, 4)), cell.parameters().values(),
                            lengths)

    def test_cell_sequence_needs_one_start_per_sequence(self):
        cell = GRUCell(3, 4, np.random.default_rng(0))
        assert cell.sequence(ad.zeros((3, 3)), ad.zeros((2, 4)), [2, 1]).data.shape == (3, 4)
        with pytest.raises(ValueError, match="lengths"):
            cell.sequence(ad.zeros((3, 3)), ad.zeros((1, 4)), [2, 1])


class TestBiGRUSequence:
    """`ad.bigru_sequence` over unequal lengths with length-1 sequences: on
    two threads against the serial run, and its forward half against
    `gru_sequence`, states and gradients bitwise in float32; its backward
    half against a forward run over each sequence reversed, and gradients
    against central differences, in float64."""

    LENGTHS = (4, 1, 3, 1)

    @staticmethod
    def leaves(rng):
        cells = GRUCell(3, 5, rng), GRUCell(3, 5, rng)
        xs = ad.Tensor(rng.uniform(-1, 1, (sum(TestBiGRUSequence.LENGTHS), 3)),
                       requires_grad=True)
        h0 = ad.Tensor(rng.uniform(-1, 1, (len(TestBiGRUSequence.LENGTHS), 5)),
                       requires_grad=True)
        mixer = ad.Tensor(rng.uniform(-1, 1, (xs.data.shape[0], 10)))
        params = {f"{side}.{name}": p for side, cell in zip(("fwd", "bwd"), cells)
                  for name, p in cell.parameters().items()}
        return cells, dict(params, xs=xs, h0=h0), mixer

    @staticmethod
    def pair(cells, leaves):
        return ad.bigru_sequence(leaves["xs"], leaves["h0"],
                                 list(cells[0].parameters().values()),
                                 list(cells[1].parameters().values()), TestBiGRUSequence.LENGTHS)

    @pytest.fixture
    def threaded(self, monkeypatch):
        """Every pair runs on two threads; returns the list of the calls'
        `one_blas_thread` flags."""
        monkeypatch.setattr(ad, "_PAIR_SPLIT_MIN", 0)
        flags, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            flags.append(one_blas_thread)
            return on_two_threads(first, second, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)
        return flags

    @staticmethod
    def sweep(build, leaves, mixer):
        """States and every leaf gradient of sum(build() * mixer)."""
        with ad.tape() as recording:
            states = build()
            recording.backward((states * mixer).sum())
        grads = {name: leaf.grad for name, leaf in leaves.items()}
        for leaf in leaves.values():
            leaf.grad = None
        return states.data, grads

    def test_threaded_equals_serial_and_forward_half_bitwise(self, threaded, monkeypatch):
        cells, leaves, mixer = self.leaves(np.random.default_rng(43))
        got, got_grads = self.sweep(lambda: self.pair(cells, leaves), leaves, mixer)
        assert threaded == [True, True]             # forward, then back through time
        monkeypatch.setattr(ad, "_PAIR_SPLIT_MIN", 1 << 62)
        want, want_grads = self.sweep(lambda: self.pair(cells, leaves), leaves, mixer)
        assert threaded == [True, True]             # the serial run adds no two-thread call
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert set(got_grads) == set(want_grads)
        for name, grad in want_grads.items():
            assert got_grads[name].dtype == grad.dtype, name
            assert got_grads[name].tobytes() == grad.tobytes(), name
        # the forward half depends on the forward columns' adjoint alone
        forward, forward_grads = self.sweep(
            lambda: ad.gru_sequence(leaves["xs"], leaves["h0"], cells[0].parameters().values(),
                                    self.LENGTHS), leaves, ad.Tensor(mixer.data[:, :5]))
        assert forward.tobytes() == np.ascontiguousarray(got[:, :5]).tobytes()
        for name in (f"fwd.{name}" for name in cells[0].parameters()):
            assert got_grads[name].tobytes() == forward_grads[name].tobytes(), name

    def test_backward_half_equals_forward_run_over_reversed_sequences(self):
        with ad.using_dtype(np.float64):
            cells, leaves, mixer = self.leaves(np.random.default_rng(45))
            mixer.data[:, :5] = 0.0                 # the backward columns alone
            ends = np.cumsum(self.LENGTHS)
            # each stored row's row in its sequence reversed; its own inverse
            flip = np.concatenate([np.arange(end - 1, end - n - 1, -1)
                                   for n, end in zip(self.LENGTHS, ends)])

            def reversed_run():
                xs, h0 = leaves["xs"], leaves["h0"]
                states = ad.gru_sequence(gather_block(xs, flip, range(3)), h0,
                                         cells[1].parameters().values(), self.LENGTHS)
                return ad.concat([ad.zeros((xs.data.shape[0], 5)),
                                  gather_block(states, flip, range(5))], axis=1)

            got, got_grads = self.sweep(lambda: self.pair(cells, leaves), leaves, mixer)
            want, want_grads = self.sweep(reversed_run, leaves, mixer)
        np.testing.assert_allclose(got[:, 5:], want[:, 5:], rtol=0, atol=1e-10)
        for name, grad in want_grads.items():
            if name.startswith("fwd."):
                assert grad is None and not np.any(got_grads[name]), name
                continue
            assert np.any(grad != 0.0), name
            np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10, err_msg=name)

    def test_gradients_match_finite_differences(self, threaded):
        with ad.using_dtype(np.float64):
            cells, leaves, mixer = self.leaves(np.random.default_rng(44))
            check_gradients(lambda: (self.pair(cells, leaves) * mixer).sum(), leaves)
        assert threaded and all(threaded)


def split_directions(states, finals):
    """`bigru_states`' two [., 2H] results as (forward, backward, final
    forward, final backward) arrays."""
    hidden = states.data.shape[1] // 2
    return (states.data[:, :hidden], states.data[:, hidden:],
            finals.data[:, :hidden], finals.data[:, hidden:])


class TestBiGRU:
    def test_backward_stack_consumes_suffixes(self):
        vocab = make_vocab()
        model = make_model(vocab)
        ids = [4, 5, 6, 4]
        fwd, bwd, final_fwd, final_bwd = split_directions(*bigru_states(model, ids, [len(ids)]))
        vectors = model.embed.data[ids]
        # forward oracle: prefix scan
        h = np.zeros((1, model.hidden_dim), dtype=np.float32)
        for t in range(len(ids)):
            h = np_gru_step(model.enc_fwd, vectors[t:t + 1], h)
            np.testing.assert_allclose(fwd[t:t + 1], h, atol=1e-5)
        np.testing.assert_allclose(final_fwd, h, atol=1e-5)
        # backward oracle: suffix scan, so row t has consumed tokens n-1..t
        h = np.zeros((1, model.hidden_dim), dtype=np.float32)
        expected_rows = [None] * len(ids)
        for t in reversed(range(len(ids))):
            h = np_gru_step(model.enc_bwd, vectors[t:t + 1], h)
            expected_rows[t] = h.copy()
        for t in range(len(ids)):
            np.testing.assert_allclose(bwd[t:t + 1], expected_rows[t], atol=1e-5)
        np.testing.assert_allclose(final_bwd, expected_rows[0], atol=1e-5)

    def test_single_token_sequence(self):
        vocab = make_vocab()
        model = make_model(vocab)
        fwd, bwd, final_fwd, final_bwd = split_directions(*bigru_states(model, [5], [1]))
        assert fwd.shape == (1, model.hidden_dim)
        np.testing.assert_allclose(fwd, final_fwd)
        np.testing.assert_allclose(bwd, final_bwd)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            bigru_states(make_model(make_vocab()), [], [0])


class TestEncodeTopics:
    def test_shapes_and_positions(self):
        vocab = make_vocab()
        schema = make_schema()
        model = make_model(vocab)
        grouped = group_paragraphs([["alpha", "zork"], ["beta"]], [0, 1], schema, vocab)
        encoding = encode_topics(model, grouped)
        assert encoding.topic_vectors.data.shape == (2, model.hidden_dim)
        assert encoding.token_states.data.shape == (3, model.hidden_dim)
        assert grouped.extended_ids.tolist() == [
            vocab.token_to_id("alpha"),
            len(vocab),  # "zork"
            vocab.token_to_id("beta"),
        ]

    def test_empty_group_gets_zero_vector(self):
        vocab = make_vocab()
        schema = make_schema()
        model = make_model(vocab)
        grouped = group_paragraphs([["alpha"]], [1], schema, vocab)
        encoding = encode_topics(model, grouped)
        np.testing.assert_allclose(encoding.topic_vectors.data[0], 0.0)
        assert np.any(encoding.topic_vectors.data[1] != 0.0)
        assert encoding.token_states.data.shape == (1, model.hidden_dim)

    def test_all_empty_groups_raise_no_usable_input(self):
        vocab = make_vocab()
        schema = make_schema()
        model = make_model(vocab)
        for paragraphs, assignments in (([], []), ([["alpha", "beta"]], [schema.noise_index])):
            grouped = group_paragraphs(paragraphs, assignments, schema, vocab)
            with pytest.raises(ValueError, match="^no usable input: every paragraph was "
                                                 "assigned to NOISE or empty$"):
                encode_topics(model, grouped)

    def test_swapping_group_contents_swaps_topic_rows(self):
        vocab = make_vocab()
        schema = make_schema()
        model = make_model(vocab)
        forward = encode_topics(model, group_paragraphs(
            [["alpha", "beta"], ["gamma"]], [0, 1], schema, vocab))
        swapped = encode_topics(model, group_paragraphs(
            [["alpha", "beta"], ["gamma"]], [1, 0], schema, vocab))
        np.testing.assert_allclose(forward.topic_vectors.data[0],
                                   swapped.topic_vectors.data[1], atol=1e-6)
        np.testing.assert_allclose(forward.topic_vectors.data[1],
                                   swapped.topic_vectors.data[0], atol=1e-6)

    def test_group_count_must_match_model(self):
        vocab = make_vocab()
        model = make_model(vocab, n_topics=3)
        grouped = group_paragraphs([["alpha"]], [0], make_schema(2), vocab)
        with pytest.raises(ValueError):
            encode_topics(model, grouped)
        with pytest.raises(ValueError, match="^need at least one topic, got 0$"):
            GeneratorModel(len(vocab), 0, embed_dim=4, hidden_dim=4)


def per_group_encoding(model, grouped):
    """(topic vectors, token states) the way encoding ran one group at a
    time: one forward GRU run per direction and group, the backward one over
    the group's tokens reversed and its states reversed back, both affines
    per group, and a zero topic row for each empty group."""
    hidden = model.hidden_dim
    topic_rows, state_blocks = [], []
    for group in grouped.groups:
        n = len(group)
        if n == 0:
            topic_rows.append(ad.zeros((1, hidden)))
            continue
        start = ad.zeros((1, hidden))
        fwd = model.enc_fwd.sequence(ad.embedding_lookup(model.embed, group.token_ids), start, [n])
        reversed_vectors = ad.embedding_lookup(model.embed, group.token_ids[::-1])
        bwd = gather_block(model.enc_bwd.sequence(reversed_vectors, start, [n]),
                           range(n - 1, -1, -1), range(hidden))
        state_blocks.append(ad.affine(ad.concat([fwd, bwd], axis=1),
                                      model.enc_token_W, model.enc_token_b))
        finals = ad.concat([ad.rows(fwd, n - 1, n), ad.rows(bwd, 0, 1)], axis=1)
        topic_rows.append(ad.affine(finals, model.enc_topic_W, model.enc_topic_b))
    return ad.concat(topic_rows, axis=0), ad.concat(state_blocks, axis=0)


class TestPackedEncoder:
    """`encode_topics` over groups of unequal lengths, an empty one between
    them, against `per_group_encoding` (float64)."""

    def test_equals_per_group_reference(self):
        vocab = make_vocab()
        words = ["alpha", "beta", "gamma", "delta", "zork", "."]
        # group lengths 2, 0, 7, 3: the packed runs shrink and grow
        paragraphs = [words[:2], words[1:6], ["quux", "alpha"], words[3:6]]
        assignments = [0, 2, 2, 3]
        with ad.using_dtype(np.float64):
            model = make_model(vocab, n_topics=4, seed=6)
            grouped = group_paragraphs(paragraphs, assignments, make_schema(4), vocab)
            assert [len(group) for group in grouped.groups] == [2, 0, 7, 3]
            rng = np.random.default_rng(6)
            mixers = [ad.Tensor(rng.uniform(-1, 1, shape)) for shape in
                      ((4, model.hidden_dim), (12, model.hidden_dim), (12, model.hidden_dim))]
            params = model.parameters()
            runs = []
            for packed in (True, False):
                with ad.tape() as recording:
                    if packed:
                        encoding = encode_topics(model, grouped)
                        topics, states, keys = (encoding.topic_vectors, encoding.token_states,
                                                encoding.attention_keys)
                    else:
                        topics, states = per_group_encoding(model, grouped)
                        keys = attention_keys(model, states)
                    outputs = (topics, states, keys)
                    recording.backward(reduce(ad.add, [(out * mixer).sum() for out, mixer
                                                       in zip(outputs, mixers)]))
                runs.append(([out.data.copy() for out in outputs],
                             {name: p.grad.copy() for name, p in params.items()
                              if p.grad is not None}))
                for p in params.values():
                    p.grad = None
            (got, got_grads), (want, want_grads) = runs
            np.testing.assert_array_equal(got[0][1], 0.0)
            for name, got_out, want_out in zip(("topics", "states", "keys"), got, want):
                np.testing.assert_allclose(got_out, want_out, rtol=0, atol=1e-10, err_msg=name)
            assert set(got_grads) == set(want_grads)
            for name in ("enc_fwd.U_z", "enc_bwd.U_h", "embed", "enc_topic_W"):
                assert np.any(want_grads[name] != 0.0), name
            for name, grad in want_grads.items():
                np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                           err_msg=name)


class TestTopicPredictor:
    def test_soft_mode_mixes_by_probabilities(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        model.topic_W.data[...] = 0.0
        model.topic_b.data[...] = 0.0  # logits all zero: uniform probabilities
        topic_vectors = ad.Tensor([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        step = predict_topic_step(model, ad.zeros((1, 4)), ad.zeros((1, 4)),
                                  topic_vectors, mode="soft")
        np.testing.assert_allclose(step.topic_probs.data, [[0.5, 0.5]], atol=1e-7)
        np.testing.assert_allclose(step.topic_context.data, [[3.0, 4.0, 5.0, 6.0]],
                                   atol=1e-6)

    def test_hard_mode_selects_argmax_row(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        model.topic_W.data[...] = 0.0
        model.topic_b.data[...] = [[0.1, 0.9]]
        topic_vectors = ad.Tensor([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        step = predict_topic_step(model, ad.zeros((1, 4)), ad.zeros((1, 4)),
                                  topic_vectors, mode="hard")
        np.testing.assert_allclose(step.topic_context.data, [[5.0, 6.0, 7.0, 8.0]])

    def test_decoder_init_adds_state_and_context(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        topic_vectors = ad.Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 4)))
        step = predict_topic_step(model, ad.zeros((1, 4)), ad.zeros((1, 4)),
                                  topic_vectors, mode="soft")
        np.testing.assert_allclose(step.decoder_init.data,
                                   step.state.data + step.topic_context.data, atol=1e-7)

    def test_stop_probability_through_bias(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        model.stop_W.data[...] = 0.0
        model.stop_b.data[...] = np.log(4.0)  # sigmoid(ln 4) = 0.8
        step = predict_topic_step(model, ad.zeros((1, 4)), ad.zeros((1, 4)),
                                  ad.zeros((2, 4)), mode="soft")
        np.testing.assert_allclose(step.stop_prob.item(), 0.8, atol=1e-6)

    def test_bad_mode_rejected(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        with pytest.raises(ValueError):
            predict_topic_step(model, ad.zeros((1, 4)), ad.zeros((1, 4)),
                               ad.zeros((2, 4)), mode="warm")


class TestAttention:
    def test_hand_computed_weights(self):
        # engineer scores (0, ln 3) so the weights are exactly (0.25, 0.75)
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=2)
        model.attn_token_W.data[...] = [[1.0, 0.0], [0.0, 0.0]]
        model.attn_state_W.data[...] = 0.0
        model.attn_b.data[...] = 0.0
        model.attn_v.data[...] = [[2.0], [0.0]]
        second = float(np.arctanh(np.log(3.0) / 2.0))  # 2*tanh(second) = ln 3
        token_states = ad.Tensor([[0.0, 7.0], [second, -3.0]])
        weights, context = attention_step(model, ad.zeros((1, 2)), token_states,
                                          attention_keys(model, token_states))
        np.testing.assert_allclose(weights.data, [[0.25], [0.75]], atol=2e-6)
        np.testing.assert_allclose(context.data, [[0.75 * second, 0.25 * 7.0 - 2.25]],
                                   atol=2e-6)

    def test_weights_normalize_over_positions(self):
        rng = np.random.default_rng(4)
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        for n in (1, 2, 9):
            token_states = ad.Tensor(rng.uniform(-2, 2, (n, 4)))
            state = ad.Tensor(rng.uniform(-2, 2, (1, 4)))
            weights, context = attention_step(model, state, token_states,
                                              attention_keys(model, token_states))
            assert weights.data.shape == (n, 1)
            np.testing.assert_allclose(weights.data.sum(), 1.0, atol=1e-6)
            np.testing.assert_allclose(
                context.data, weights.data.T @ token_states.data, atol=1e-6)

    def test_missing_token_states_rejected(self):
        vocab = make_vocab()
        model = make_model(vocab, hidden_dim=4)
        with pytest.raises(ValueError, match="at least one encoded input token"):
            attention_step(model, ad.zeros((1, 4)), ad.zeros((0, 4)),
                           attention_keys(model, ad.zeros((0, 4))))

    @pytest.mark.parametrize("per_block", [1, 2, None])
    @pytest.mark.parametrize("count", [1, 3, 48])
    def test_equals_composed_reference(self, monkeypatch, count, per_block):
        """attention_step over R states against the per-row composed form:
        weights, contexts and every gradient, to 1e-10 in float64, with the
        scores' buffer holding one, two or (None) all query rows."""
        if per_block is not None:
            monkeypatch.setattr(ad, "_SCORE_BLOCK", per_block * 7 * 6)
        with ad.using_dtype(np.float64):
            rng = np.random.default_rng(count)
            model = make_model(make_vocab(), hidden_dim=6)
            token_states = ad.Tensor(rng.uniform(-2, 2, (7, 6)), requires_grad=True)
            keys = ad.Tensor(rng.uniform(-2, 2, (7, 6)), requires_grad=True)
            states = ad.Tensor(rng.uniform(-2, 2, (count, 6)), requires_grad=True)
            weight_mixer = ad.Tensor(rng.uniform(-1, 1, (7, count)))
            context_mixer = ad.Tensor(rng.uniform(-1, 1, (count, 6)))
            leaves = {"keys": keys, "token_states": token_states, "states": states,
                      "attn_state_W": model.attn_state_W, "attn_b": model.attn_b,
                      "attn_v": model.attn_v}
            runs = []
            for attend in (attention_step, composed_attention):
                with ad.tape() as recording:
                    weights, context = attend(model, states, token_states, keys)
                    recording.backward((weights * weight_mixer).sum()
                                       + (context * context_mixer).sum())
                runs.append((weights.data.copy(), context.data.copy(),
                             {name: leaf.grad.copy() for name, leaf in leaves.items()}))
                for leaf in leaves.values():
                    leaf.grad = None
            (got_w, got_c, got_grads), (want_w, want_c, want_grads) = runs
            assert got_w.shape == (7, count) and got_c.shape == (count, 6)
            np.testing.assert_allclose(got_w, want_w, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got_c, want_c, rtol=0, atol=1e-10)
            for name, grad in want_grads.items():
                assert np.any(grad != 0.0), name
                np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                           err_msg=name)

    def test_block_equals_one_row_calls(self):
        """R decoder states in one call against R one-row calls: weights,
        contexts and every gradient (float64)."""
        with ad.using_dtype(np.float64):
            rng = np.random.default_rng(6)
            model = make_model(make_vocab(), hidden_dim=4)
            token_states = ad.Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
            states = rng.uniform(-2, 2, (3, 4))
            weight_mixer = ad.Tensor(rng.uniform(-1, 1, (5, 3)))
            context_mixer = ad.Tensor(rng.uniform(-1, 1, (3, 4)))
            leaves = {"attn_token_W": model.attn_token_W, "attn_state_W": model.attn_state_W,
                      "attn_b": model.attn_b, "attn_v": model.attn_v,
                      "token_states": token_states}
            runs = []
            for block in (True, False):
                with ad.tape() as recording:
                    keys = attention_keys(model, token_states)
                    if block:
                        rows = [ad.Tensor(states, requires_grad=True)]
                        weights, context = attention_step(model, rows[0], token_states, keys)
                    else:
                        rows = [ad.Tensor(states[r:r + 1], requires_grad=True) for r in range(3)]
                        weights, context = zip(*(attention_step(model, row, token_states, keys)
                                                 for row in rows))
                        weights, context = ad.concat(weights, axis=1), ad.concat(context, axis=0)
                    recording.backward((weights * weight_mixer).sum()
                                       + (context * context_mixer).sum())
                grads = {name: leaf.grad.copy() for name, leaf in leaves.items()}
                grads["states"] = np.concatenate([row.grad for row in rows])
                runs.append((weights.data.copy(), context.data.copy(), grads))
                for leaf in leaves.values():
                    leaf.grad = None
            (got_w, got_c, got_grads), (want_w, want_c, want_grads) = runs
            assert got_w.shape == (5, 3) and got_c.shape == (3, 4)
            np.testing.assert_allclose(got_w, want_w, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got_c, want_c, rtol=0, atol=1e-10)
            for name, grad in want_grads.items():
                assert np.any(grad != 0.0), name
                np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                           err_msg=name)


def composed_attention(model, states, token_states, keys):
    """Additive attention composed of tape ops, one state row at a time:
    softmax over positions of tanh(keys + affine(state)) @ attn_v, and the
    weighted sum of token states; independent of `ad.additive_scores`."""
    weights, contexts = [], []
    for r in range(states.data.shape[0]):
        query = ad.affine(ad.rows(states, r, r + 1), model.attn_state_W, model.attn_b)
        column = ad.softmax(ad.matmul(ad.tanh(keys + query), model.attn_v), axis=0)
        weights.append(column)
        contexts.append(ad.matmul(ad.transpose(column), token_states))
    return ad.concat(weights, axis=1), ad.concat(contexts, axis=0)


def rigged_distribution_model(vocab, grouped, p_gen, vocab_probs):
    """Model whose output distribution is exactly p_gen * vocab_probs plus
    (1 - p_gen) * the copy distribution, independent of the inputs."""
    model = make_model(vocab, hidden_dim=4)
    model.out_hidden_W.data[...] = 0.0
    model.out_hidden_b.data[...] = 0.0
    model.out_vocab_W.data[...] = 0.0
    logits = np.full((1, len(vocab)), -1e9, dtype=np.float32)
    for token_id, prob in vocab_probs.items():
        logits[0, token_id] = np.log(prob)
    model.out_vocab_b.data[...] = logits
    model.gate_context_W.data[...] = 0.0
    model.gate_state_W.data[...] = 0.0
    model.gate_input_W.data[...] = 0.0
    if p_gen <= 0.0:
        model.gate_b.data[...] = -1e9  # sigmoid saturates at exactly 0
    else:
        model.gate_b.data[...] = np.log(p_gen / (1.0 - p_gen))
    return model


class TestTokenDistribution:
    def setup_case(self):
        vocab = make_vocab()
        schema = make_schema()
        # "zork" is out of vocabulary: extended id len(vocab)
        grouped = group_paragraphs([["alpha", "zork"]], [0], schema, vocab)
        return vocab, schema, grouped

    def run_distribution(self, model, grouped, weights_value):
        state = ad.zeros((1, 4))
        context = ad.zeros((1, 4))
        dec_input = ad.zeros((1, 5))
        weights = ad.Tensor(np.asarray(weights_value, dtype=np.float32).reshape(-1, 1))
        return token_distribution(model, state, context, dec_input, weights, grouped)

    def test_mixture_arithmetic_by_hand(self):
        vocab, _, grouped = self.setup_case()
        alpha, beta = vocab.token_to_id("alpha"), vocab.token_to_id("beta")
        model = rigged_distribution_model(vocab, grouped, p_gen=0.25,
                                          vocab_probs={alpha: 0.6, beta: 0.4})
        dist = self.run_distribution(model, grouped, [0.25, 0.75])
        expected = np.zeros(grouped.extended_size)
        expected[alpha] = 0.25 * 0.6 + 0.75 * 0.25   # generated + copied "alpha"
        expected[beta] = 0.25 * 0.4                   # generated only
        expected[len(vocab)] = 0.75 * 0.75            # copied OOV "zork"
        np.testing.assert_allclose(dist.data[0], expected, atol=1e-6)
        np.testing.assert_allclose(dist.data.sum(), 1.0, atol=1e-6)

    def test_pure_copy_reaches_only_input_tokens(self):
        vocab, _, grouped = self.setup_case()
        model = rigged_distribution_model(vocab, grouped, p_gen=0.0,
                                          vocab_probs={4: 1.0})
        dist = self.run_distribution(model, grouped, [0.3, 0.7])
        expected = np.zeros(grouped.extended_size)
        expected[vocab.token_to_id("alpha")] = 0.3
        expected[len(vocab)] = 0.7
        np.testing.assert_allclose(dist.data[0], expected)  # exact zeros elsewhere

    def test_copy_mass_merges_repeated_tokens(self):
        vocab = make_vocab()
        schema = make_schema()
        grouped = group_paragraphs([["alpha", "beta", "alpha"]], [0], schema, vocab)
        model = rigged_distribution_model(vocab, grouped, p_gen=0.0,
                                          vocab_probs={4: 1.0})
        dist = self.run_distribution(model, grouped, [0.2, 0.5, 0.3])
        np.testing.assert_allclose(dist.data[0, vocab.token_to_id("alpha")], 0.5,
                                   atol=1e-7)
        np.testing.assert_allclose(dist.data[0, vocab.token_to_id("beta")], 0.5,
                                   atol=1e-7)

    def test_no_oov_keeps_vocab_width(self):
        vocab = make_vocab()
        schema = make_schema()
        grouped = group_paragraphs([["alpha", "beta"]], [0], schema, vocab)
        model = make_model(vocab, hidden_dim=4)
        dist = self.run_distribution(model, grouped, [0.5, 0.5])
        assert dist.data.shape == (1, len(vocab))
        np.testing.assert_allclose(dist.data.sum(), 1.0, atol=1e-6)

    def test_weight_count_mismatch_rejected(self):
        vocab, _, grouped = self.setup_case()
        model = make_model(vocab, hidden_dim=4)
        with pytest.raises(ValueError, match="positions"):
            self.run_distribution(model, grouped, [1.0])


def full_block_candidates(model, grouped, state, context, dec_input, weights, count):
    """What `beam_candidates` must return, from the whole [R, V'] block:
    `token_distribution`, its log clamped at 1e-12, and a stable descending
    sort.  Returns (ids, scores, the block's log-probabilities)."""
    dist = token_distribution(model, ad.Tensor(state), ad.Tensor(context),
                              ad.Tensor(dec_input), ad.Tensor(weights), grouped)
    log_probs = np.log(np.maximum(dist.data, 1e-12))
    ids = np.argsort(-log_probs, axis=1, kind="stable")[:, :count]
    return ids, np.take_along_axis(log_probs, ids, axis=1), log_probs


def output_layer_values(model, state, context, dec_input):
    """`_output_layer`'s logits [R, V] and p_gen [R, 1] as arrays, run
    tape-free, as beam search runs it."""
    logits, p_gen = generator._output_layer(model, ad.Tensor(state), ad.Tensor(context),
                                            ad.Tensor(dec_input))
    return logits.data, p_gen.data


class TestBeamCandidates:
    """`beam_candidates` keeps bitwise the (id, score) pairs of the full
    block: small blocks by sorting it, larger ones without building it."""

    # `_FULL_MIXTURE_MAX` values that send every block one way
    WAYS = {"selection": 0, "mixture": 1 << 62}

    def compare(self, model, grouped, rng, count, rows=5, weights=None):
        """Both ways of `beam_candidates`, each forced whatever the block's
        size, against `full_block_candidates`."""
        dtype = model.out_vocab_W.data.dtype
        state, context = (rng.normal(0.0, 1.0, (rows, model.hidden_dim)).astype(dtype)
                          for _ in range(2))
        dec_input = rng.normal(0.0, 1.0, (rows, model.embed_dim)).astype(dtype)
        if weights is None:
            weights = rng.dirichlet(np.ones(grouped.extended_ids.size), size=rows).T.astype(dtype)
        want_ids, want_scores, log_probs = full_block_candidates(
            model, grouped, state, context, dec_input, weights, count)
        input_ids, inverse = np.unique(grouped.extended_ids, return_inverse=True)
        mixture = generator._mixture_candidates
        for way, limit in self.WAYS.items():
            # fresh logits, since a call overwrites them
            logits, p_gen = output_layer_values(model, state, context, dec_input)
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(generator, "_FULL_MIXTURE_MAX", limit)
                patch.setattr(generator, "_mixture_candidates",
                              lambda *args: calls.append(args) or mixture(*args))
                with ad.tape() as recording:
                    got_ids, got_scores = beam_candidates(logits, p_gen, weights, input_ids,
                                                          inverse, count)
            assert len(recording) == 0
            assert len(calls) == (way == "mixture"), way
            np.testing.assert_array_equal(got_ids, want_ids, err_msg=way)
            assert got_scores.dtype == want_scores.dtype == dtype, way
            np.testing.assert_array_equal(got_scores, want_scores, err_msg=way)
        return want_scores, log_probs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [2, 6])
    def test_random_models_with_oov_and_repeated_inputs(self, dtype, count):
        vocab = Vocabulary([f"w{i}" for i in range(60)])
        with ad.using_dtype(dtype):
            for seed in range(12):
                rng = np.random.default_rng(seed)
                model = make_model(vocab, seed=seed)
                for tensor in model.parameters().values():
                    tensor.data *= rng.uniform(1.0, 20.0)
                tokens = [f"w{i}" for i in rng.integers(0, 60, 25)] + ["zork", "w3", "quux",
                                                                      "zork", "w3"]
                rng.shuffle(tokens)
                grouped = group_paragraphs([tokens[:15], tokens[15:]], [0, 1], make_schema(),
                                           vocab)
                self.compare(model, grouped, rng, count)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_vocabulary_word_in_the_input(self, dtype):
        vocab = make_vocab()
        tokens = list(RESERVED_TOKENS) + ["alpha", "beta", "gamma", "delta", ".", "zork", "alpha"]
        with ad.using_dtype(dtype):
            model = make_model(vocab)
            grouped = group_paragraphs([tokens], [0], make_schema(), vocab)
            self.compare(model, grouped, np.random.default_rng(0), count=6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [8, 9, 13])
    def test_extended_vocabulary_no_wider_than_the_count(self, dtype, count):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        with ad.using_dtype(dtype):
            model = make_model(vocab)
            grouped = group_paragraphs([["alpha", "zork", "quux", "alpha"]], [0], make_schema(),
                                       vocab)
            assert grouped.extended_size == 9
            scores, _ = self.compare(model, grouped, np.random.default_rng(1), count)
            assert scores.shape[1] == min(count, 9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cut_clamped_at_the_floor(self, dtype):
        """Every word outside the input has a probability below 1e-12, the
        higher its id the higher, so the cut falls among thousands of words
        tied at the clamp: the lowest ids are kept."""
        vocab = Vocabulary([f"w{i}" for i in range(3000)])
        with ad.using_dtype(dtype):
            grouped = group_paragraphs([["w7", "w2999", "w7"]], [0], make_schema(), vocab)
            inputs = [vocab.token_to_id("w7"), vocab.token_to_id("w2999")]
            model = rigged_distribution_model(vocab, grouped, p_gen=0.5,
                                              vocab_probs=dict.fromkeys(inputs, 0.5))
            others = np.setdiff1d(np.arange(len(vocab)), inputs)
            model.out_vocab_b.data[0, others] = -60.0 + 0.01 * others
            scores, log_probs = self.compare(model, grouped, np.random.default_rng(2), count=6)
        floor = np.log(np.maximum(np.zeros(1, dtype), 1e-12))[0]
        assert (scores[:, -1] == floor).all()
        assert ((log_probs == floor).sum(axis=1) > 6).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rounding_tie_at_the_cut(self, dtype):
        """Two words outside the input whose exps differ but whose
        log-probabilities round to the same value, at the last kept place:
        the lower id is kept, although its logit is the lower one."""
        vocab = Vocabulary([f"w{i}" for i in range(36)])
        # above the lowest ids, which are candidates in any case
        top, low, high, count = 10, 20, 30, 6
        step = 10 * np.finfo(dtype).eps
        with ad.using_dtype(dtype):
            grouped = group_paragraphs([["w30"]], [0], make_schema(), vocab)
            # p_gen 1e-8 puts the pair's log-probabilities near -23, where
            # their rounding is coarse
            model = rigged_distribution_model(vocab, grouped, p_gen=1e-8, vocab_probs={})
            tied = 0
            for shift in range(40):
                logits = np.full(len(vocab), -1e9, dtype=dtype)
                logits[top:top + count - 1] = 0.0
                logits[high] = dtype(-3.0 + 1e-3 * shift)
                logits[low] = logits[high] - dtype(step)
                model.out_vocab_b.data[0] = logits
                # no copy mass: the input word stays below the cut
                scores, log_probs = self.compare(model, grouped, np.random.default_rng(3),
                                                 count, rows=1, weights=np.zeros((1, 1), dtype))
                if log_probs[0, low] == log_probs[0, high]:
                    tied += 1
                    assert scores[0, -1] == log_probs[0, low]
        assert tied >= 3

    def test_blocks_up_to_the_limit_sort_the_mixture(self, monkeypatch):
        """At the default `_FULL_MIXTURE_MAX`, a block of that many R x V
        sorts the mixture, and one of a row more selects."""
        calls, mixture = [], generator._mixture_candidates
        monkeypatch.setattr(generator, "_mixture_candidates",
                            lambda *args: calls.append(args[0].size) or mixture(*args))
        limit = generator._FULL_MIXTURE_MAX
        vocab = Vocabulary([f"w{i}" for i in range(limit // 4 - len(RESERVED_TOKENS))])
        model = make_model(vocab)
        grouped = group_paragraphs([["w1", "zork", "w9", "w1"]], [0], make_schema(), vocab)
        input_ids, inverse = np.unique(grouped.extended_ids, return_inverse=True)
        rng = np.random.default_rng(4)
        for rows in (4, 5):
            state, context = (rng.normal(0.0, 1.0, (rows, 4)) for _ in range(2))
            dec_input = rng.normal(0.0, 1.0, (rows, 5))
            weights = rng.dirichlet(np.ones(inverse.size), size=rows).T
            beam_candidates(*output_layer_values(model, state, context, dec_input), weights,
                            input_ids, inverse, 6)
        assert calls == [limit]

    def split_equals_serial(self, monkeypatch, model, state, context, dec_input, *arrays,
                            count):
        """beam_candidates with the row halves forced onto two threads,
        asserted bitwise equal to the one-pass result and returned.  Each
        call gets fresh logits, since it overwrites them."""
        calls, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            calls.append(one_blas_thread)
            return on_two_threads(first, second, one_blas_thread)

        def candidates():
            return beam_candidates(*output_layer_values(model, state, context, dec_input),
                                   *arrays, count)

        with monkeypatch.context() as patch:
            patch.setattr(ad, "on_two_threads", spy)
            patch.setattr(generator, "_FULL_MIXTURE_MAX", 0)     # the selection at any size
            serial = candidates()
            assert calls == []
            patch.setattr(generator, "_BEAM_SPLIT_MIN", 0)
            split = candidates()
        assert calls == ([False] if state.shape[0] > 1 else [])
        for got, want in zip(split, serial):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return split

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_row_halves_on_two_threads_equal_one_pass(self, monkeypatch, dtype, rows):
        vocab = Vocabulary([f"w{i}" for i in range(60)])
        with ad.using_dtype(dtype):
            for seed in range(4):
                rng = np.random.default_rng(seed)
                model = make_model(vocab, seed=seed)
                for tensor in model.parameters().values():
                    tensor.data *= rng.uniform(1.0, 20.0)
                tokens = [f"w{i}" for i in rng.integers(0, 60, 25)] + ["zork", "w3", "zork"]
                grouped = group_paragraphs([tokens], [0], make_schema(), vocab)
                input_ids, inverse = np.unique(grouped.extended_ids, return_inverse=True)
                state, context = (rng.normal(0.0, 1.0, (rows, 4)).astype(dtype) for _ in range(2))
                dec_input = rng.normal(0.0, 1.0, (rows, 5)).astype(dtype)
                weights = rng.dirichlet(np.ones(inverse.size), size=rows).T.astype(dtype)
                self.split_equals_serial(monkeypatch, model, state, context, dec_input, weights,
                                         input_ids, inverse, count=6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_row_halves_keep_the_tie_rescoring(self, monkeypatch, dtype, rows):
        """`test_rounding_tie_at_the_cut` in the last row, on the worker's
        half: the gate reads the state's first unit, and every other row
        puts its words below the clamp, so only the last row is rescored."""
        vocab = Vocabulary([f"w{i}" for i in range(36)])
        top, low, high, count = 10, 20, 30, 6
        step = 10 * np.finfo(dtype).eps
        with ad.using_dtype(dtype):
            grouped = group_paragraphs([["w30"]], [0], make_schema(), vocab)
            input_ids, inverse = np.unique(grouped.extended_ids, return_inverse=True)
            model = rigged_distribution_model(vocab, grouped, p_gen=1e-8, vocab_probs={})
            model.gate_state_W.data[0, 0] = 1.0
            state = np.zeros((rows, 4), dtype)
            state[:-1, 0] = -80.0
            context, dec_input = np.zeros((rows, 4), dtype), np.zeros((rows, 5), dtype)
            weights = np.zeros((1, rows), dtype)
            tied = 0
            for shift in range(40):
                logits = np.full(len(vocab), -1e9, dtype=dtype)
                logits[top:top + count - 1] = 0.0
                logits[high] = dtype(-3.0 + 1e-3 * shift)
                logits[low] = logits[high] - dtype(step)
                model.out_vocab_b.data[0] = logits
                _, scores = self.split_equals_serial(monkeypatch, model, state, context,
                                                     dec_input, weights, input_ids, inverse,
                                                     count=count)
                _, want, log_probs = full_block_candidates(model, grouped, state, context,
                                                           dec_input, weights, count)
                np.testing.assert_array_equal(scores, want)
                if log_probs[-1, low] == log_probs[-1, high]:
                    tied += 1
                    assert scores[-1, -1] == log_probs[-1, low]
        assert tied >= 3


class DecodingSetup:
    def build(self, seed=0, paragraphs=None, assignments=None):
        vocab = make_vocab()
        schema = make_schema()
        model = make_model(vocab, seed=seed)
        paragraphs = paragraphs or [["alpha", "beta", "zork"], ["gamma", "delta"]]
        assignments = assignments or [0, 1]
        grouped = group_paragraphs(paragraphs, assignments, schema, vocab)
        encoding = encode_topics(model, grouped)
        return vocab, schema, model, grouped, encoding


class TestDecodeSentence(DecodingSetup):
    def greedy_reference(self, model, decoder_init, encoding, grouped, vocab,
                         max_tokens):
        """Plain argmax decoding, written without any beam machinery."""
        state = decoder_init
        prev = BOS_ID
        surfaces = []
        for _ in range(max_tokens):
            feed = prev if prev < len(vocab) else UNK_ID
            x = ad.embedding_lookup(model.embed, [feed])
            state = model.dec_cell.step(x, state)
            weights, context = attention_step(model, state, encoding.token_states,
                                              attention_keys(model, encoding.token_states))
            dist = token_distribution(model, state, context, x, weights, grouped)
            token_id = int(np.argmax(dist.data[0]))
            if token_id == EOS_ID:
                break
            if token_id < len(vocab):
                surfaces.append(vocab.id_to_token(token_id))
            else:
                surfaces.append(grouped.oov_tokens[token_id - len(vocab)])
            prev = token_id
        return surfaces

    def test_beam_one_equals_greedy(self):
        for seed in range(4):
            vocab, _, model, grouped, encoding = self.build(seed=seed)
            init = ad.Tensor(np.random.default_rng(seed).uniform(-1, 1, (1, 4))
                             .astype(np.float32))
            config = DecodeConfig(beam_size=1, max_sentence_tokens=8)
            got = decode_sentence(model, init, encoding, grouped, vocab, config)
            want = self.greedy_reference(model, init, encoding, grouped, vocab, 8)
            assert got == want, f"seed {seed}"

    def test_decoding_is_deterministic(self):
        vocab, _, model, grouped, encoding = self.build()
        init = ad.zeros((1, 4))
        config = DecodeConfig(beam_size=3, max_sentence_tokens=10)
        first = decode_sentence(model, init, encoding, grouped, vocab, config)
        second = decode_sentence(model, init, encoding, grouped, vocab, config)
        assert first == second

    def test_token_cap_respected(self):
        vocab, _, model, grouped, encoding = self.build()
        config = DecodeConfig(beam_size=2, max_sentence_tokens=3)
        out = decode_sentence(model, ad.zeros((1, 4)), encoding, grouped, vocab, config)
        assert len(out) <= 3

    def test_pure_copy_emits_only_input_surfaces(self):
        vocab, _, model, grouped, encoding = self.build()
        model.gate_b.data[...] = -1e9  # p_gen = 0: every token must be copied
        model.gate_context_W.data[...] = 0.0
        model.gate_state_W.data[...] = 0.0
        model.gate_input_W.data[...] = 0.0
        config = DecodeConfig(beam_size=2, max_sentence_tokens=6)
        out = decode_sentence(model, ad.zeros((1, 4)), encoding, grouped, vocab, config)
        input_surfaces = {tok for group in grouped.groups for tok in group.tokens}
        assert out  # EOS is unreachable with zero generation mass
        assert set(out) <= input_surfaces

    def test_wider_beam_never_scores_worse(self):
        # the beam-5 result's normalized log-probability is >= the greedy one
        vocab, _, model, grouped, encoding = self.build(seed=3)

        def normalized_score(sentence):
            state = ad.zeros((1, 4))
            prev = BOS_ID
            total = 0.0
            ids = [grouped.target_id(tok, vocab) for tok in sentence] + [EOS_ID]
            for target in ids:
                feed = prev if prev < len(vocab) else UNK_ID
                x = ad.embedding_lookup(model.embed, [feed])
                state = model.dec_cell.step(x, state)
                weights, context = attention_step(model, state, encoding.token_states,
                                                  attention_keys(model, encoding.token_states))
                dist = token_distribution(model, state, context, x, weights, grouped)
                total += float(np.log(max(dist.data[0, target], 1e-12)))
                prev = target
            return total / len(ids)

        narrow = decode_sentence(model, ad.zeros((1, 4)), encoding, grouped, vocab,
                                 DecodeConfig(beam_size=1, max_sentence_tokens=5))
        wide = decode_sentence(model, ad.zeros((1, 4)), encoding, grouped, vocab,
                               DecodeConfig(beam_size=5, max_sentence_tokens=5))
        assert normalized_score(wide) >= normalized_score(narrow) - 1e-6


    @staticmethod
    def equally_likely_words():
        """A model under which every word has the same probability (no copy
        mass, zero logits, the reserved ids ruled out): vocab, model,
        grouped input and its encoding."""
        vocab = Vocabulary([f"w{i}" for i in range(996)])
        model = make_model(vocab)
        for tensor in (model.out_hidden_W, model.out_vocab_W, model.out_vocab_b):
            tensor.data[...] = 0.0
        model.out_vocab_b.data[0, :4] = -1e9
        model.gate_b.data[...] = 1e9
        grouped = group_paragraphs([["w5", "w9", "w7"]], [0], make_schema(), vocab)
        return vocab, model, grouped, encode_topics(model, grouped)

    @pytest.mark.parametrize("beam", [1, 3])
    def test_exact_ties_go_to_the_lowest_token_id(self, beam):
        """Every word has the same probability, so each step's best token is
        the lowest word id, w0, however many ids tie at the beam's cut."""
        vocab, model, grouped, encoding = self.equally_likely_words()
        config = DecodeConfig(beam_size=beam, max_sentence_tokens=3)
        init = ad.Tensor(np.full((1, 4), 0.3))
        assert decode_sentence(model, init, encoding, grouped, vocab, config) == ["w0"] * 3
        _, ids = reference_beam_search(model, init, encoding, grouped, config)
        assert ids == [vocab.token_to_id("w0")] * 3

    def test_equal_candidates_of_two_hypotheses_keep_their_arrival_order(self):
        """Every word equally likely, beam 2 and a two-token cap: the
        hypotheses [w0] and [w1] both offer w0 at the same score, so their
        finished sentences tie, and the first to arrive, [w0, w0], wins."""
        vocab, model, grouped, encoding = self.equally_likely_words()
        config = DecodeConfig(beam_size=2, max_sentence_tokens=2)
        inits = [ad.Tensor(np.full((1, 4), 0.3)), ad.Tensor(np.full((1, 4), -0.2))]
        w0 = vocab.token_to_id("w0")
        for score, ids in _beam_search(model, inits, encoding, grouped, config):
            assert ids == [w0, w0]
            assert score == reference_beam_search(model, inits[0], encoding, grouped, config)[0]
        assert reference_beam_search(model, inits[1], encoding, grouped, config)[1] == [w0, w0]


def reference_beam_search(model, decoder_init, encoding, grouped, config):
    """The per-sentence, per-hypothesis beam search that lockstep decoding
    replaced: one [1, H] decoder step per live hypothesis.  Returns the best
    (length-normalized log-probability, extended ids)."""
    beam = config.beam_size
    live = [([], 0.0, decoder_init, BOS_ID)]   # (tokens, log_prob, state, prev_id)
    finished = []
    while live:
        candidates = []
        for tokens, log_prob, state, prev_id in live:
            x = ad.embedding_lookup(model.embed, [prev_id if prev_id < model.vocab_size else UNK_ID])
            state = model.dec_cell.step(x, state)
            weights, context = attention_step(model, state, encoding.token_states,
                                              encoding.attention_keys)
            dist = token_distribution(model, state, context, x, weights, grouped)
            log_probs = np.log(np.maximum(dist.data[0], 1e-12))
            for token_id in np.argsort(-log_probs, kind="stable")[:beam + 1]:
                candidates.append((log_prob + float(log_probs[token_id]), int(token_id),
                                   tokens, state))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, token_id, tokens, state in candidates[:beam]:
            emitted = len(tokens) + 1
            if token_id == EOS_ID:
                finished.append((score / emitted, tokens))
                continue
            tokens = tokens + [token_id]
            if len(tokens) >= config.max_sentence_tokens:
                finished.append((score / emitted, tokens))
                continue
            live.append((tokens, score, state, token_id))
    return max(finished, key=lambda item: item[0])


class TestLockstepDecoding(DecodingSetup):
    """All sentences of an abstract searched as rows of one block, against
    `reference_beam_search` run per sentence (float64)."""

    def decoder_inits(self, model, encoding, mode, count):
        state = context = ad.zeros((1, model.hidden_dim))
        inits = []
        for _ in range(count):
            step = predict_topic_step(model, state, context, encoding.topic_vectors, mode)
            inits.append(step.decoder_init)
            state, context = step.state, step.topic_context
        return inits

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("beam", [1, 2, 5, 12])
    def test_equals_per_sentence_reference(self, monkeypatch, mode, beam):
        block_rows = []
        candidates = generator.beam_candidates

        def recording(logits, *args, **kwargs):
            block_rows.append(logits.shape[0])
            return candidates(logits, *args, **kwargs)

        lengths, shrank = set(), False
        config = DecodeConfig(beam_size=beam, max_sentence_tokens=8)
        with ad.using_dtype(np.float64):
            for seed in range(4):
                vocab, _, model, grouped, _ = self.build(seed=seed)
                # peaked distributions, a likely EOS and spread-out inits, so
                # that sentences end at different steps, some at the token cap
                for tensor in model.parameters().values():
                    tensor.data *= 10.0
                model.out_vocab_b.data[0, EOS_ID] = 2.0
                encoding = encode_topics(model, grouped)
                rng = np.random.default_rng(seed)
                inits = [init + ad.Tensor(rng.normal(0.0, 3.0, (1, model.hidden_dim)))
                         for init in self.decoder_inits(model, encoding, mode, 4)]
                want = [reference_beam_search(model, init, encoding, grouped, config)
                        for init in inits]
                block_rows.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(generator, "beam_candidates", recording)
                    got = _beam_search(model, inits, encoding, grouped, config)
                assert [ids for _, ids in got] == [ids for _, ids in want], f"seed {seed}"
                for (got_score, _), (want_score, _) in zip(got, want):
                    assert abs(got_score - want_score) <= 1e-10, f"seed {seed}"
                assert decode_sentences(model, inits, encoding, grouped, vocab, config) == \
                    [decode_sentence(model, init, encoding, grouped, vocab, config)
                     for init in inits]
                # one decoder call per step, over at most every sentence's beam
                assert block_rows[0] == len(inits) and max(block_rows) <= len(inits) * beam
                shrank |= any(later < earlier for earlier, later in zip(block_rows, block_rows[1:]))
                lengths |= {len(ids) for _, ids in want}
        # the widest beam takes every token of the extended vocabulary
        assert (beam >= grouped.extended_size) == (beam == 12)
        assert shrank and len(lengths) > 2 and config.max_sentence_tokens in lengths

    def test_no_sentences_runs_no_decoder(self):
        vocab, _, model, grouped, encoding = self.build()
        assert decode_sentences(model, [], encoding, grouped, vocab, DecodeConfig()) == []


class TestTwoThreadSearch(DecodingSetup):
    def test_two_user_threads_searching_at_once_get_their_own_results(self, monkeypatch):
        """With attention and candidate selection forced onto two threads,
        each of two threads searching at the same time gets the results of a
        search run alone, whichever of them has the worker at each step."""
        monkeypatch.setattr(generator, "_BEAM_SPLIT_MIN", 0)
        monkeypatch.setattr(generator, "_FULL_MIXTURE_MAX", 0)     # the selection at any size
        monkeypatch.setattr(ad, "_SCORE_SPLIT_MIN", 0)
        monkeypatch.setattr(ad, "_SCORE_BLOCK", 1)     # one query a block
        calls, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            calls.append(threading.get_ident())
            return on_two_threads(first, second, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)
        config = DecodeConfig(beam_size=3, max_sentence_tokens=6)
        searches = []
        for seed in (0, 1):
            _, _, model, grouped, encoding = self.build(seed=seed)
            for tensor in model.parameters().values():
                tensor.data *= 5.0
            inits = [ad.Tensor(np.random.default_rng(seed + k).normal(0.0, 1.0, (1, 4)))
                     for k in range(3)]
            searches.append((model, inits, encoding, grouped, config))
        alone = [_beam_search(*search) for search in searches]
        assert alone[0] != alone[1]
        calls.clear()
        results, start = [[], []], threading.Barrier(2)

        def user(index):
            start.wait()
            for _ in range(5):
                results[index].append(_beam_search(*searches[index]))

        users = [threading.Thread(target=user, args=(index,), daemon=True) for index in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch often, so the two searches interleave
        try:
            for thread in users:
                thread.start()
            for thread in users:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in users)
        assert results == [[alone[0]] * 5, [alone[1]] * 5]
        assert set(calls) == {thread.ident for thread in users}

    def test_draw_training_and_search_share_one_worker(self, monkeypatch):
        """With every two-thread threshold at 0, a training step and a beam
        search run every second half on the worker that a bare call uses,
        and start no thread but that one; building the model (weight draws)
        runs on this thread alone."""
        for module, name in ((ad, "_PAIR_SPLIT_MIN"), (ad, "_SCORE_SPLIT_MIN"),
                             (ad, "_PASS_SPLIT_MIN"), (generator, "_BEAM_SPLIT_MIN")):
            monkeypatch.setattr(module, name, 0)
        monkeypatch.setattr(generator, "_FULL_MIXTURE_MAX", 0)     # the selection at any size
        monkeypatch.setattr(ad, "_SCORE_BLOCK", 1)     # one query a block
        threads = threading.active_count()
        seen, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            def recorded():
                seen.append(threading.get_ident())
                return second()
            return on_two_threads(first, recorded, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)
        corpus = toy_summarization_corpus(4, 0)
        model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics), embed_dim=8,
                               hidden_dim=8, seed=1)
        counts = [len(seen)]
        train_generator(model, corpus.examples[:1], corpus.assignments[:1], [], [],
                        corpus.schema, corpus.vocab, epochs=1)
        counts.append(len(seen))
        generate_abstract(model, corpus.examples[0].paragraph_tokens, corpus.assignments[0],
                          corpus.schema, corpus.vocab,
                          DecodeConfig(beam_size=3, max_sentences=2, max_sentence_tokens=4))
        counts.append(len(seen))
        assert 0 == counts[0] < counts[1] < counts[2]
        worker = ad.on_two_threads(lambda: None, threading.get_ident)[1]
        assert set(seen) == {worker} and worker != threading.get_ident()
        assert threading.active_count() <= threads + 1

    def test_toy_size_starts_no_second_thread(self, monkeypatch):
        """Training and beam-5 generation at the acceptance corpus's size
        (E=48, H=64) stay below every two-thread threshold."""
        calls, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            calls.append(one_blas_thread)
            return on_two_threads(first, second, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)
        corpus = toy_summarization_corpus(20, 0)
        model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics), embed_dim=48,
                               hidden_dim=64, seed=42)
        train_generator(model, corpus.examples[:3], corpus.assignments[:3], [], [],
                        corpus.schema, corpus.vocab, epochs=1)
        config = DecodeConfig(beam_size=5, max_sentences=10)
        for example, assignments in zip(corpus.examples[:3], corpus.assignments):
            generate_abstract(model, example.paragraph_tokens, assignments, corpus.schema,
                              corpus.vocab, config)
        assert calls == []


class TestGenerateAbstract(DecodingSetup):
    def test_outputs_token_sentences(self):
        vocab, schema, model, _, _ = self.build()
        config = DecodeConfig(beam_size=2, max_sentences=3, max_sentence_tokens=5)
        sentences = generate_abstract(model, [["alpha", "beta"], ["gamma"]], [0, 1],
                                      schema, vocab, config)
        assert isinstance(sentences, list)
        assert len(sentences) <= 3
        for sentence in sentences:
            assert all(isinstance(tok, str) for tok in sentence)

    def test_immediate_stop_gives_empty_abstract(self, monkeypatch):
        vocab, schema, model, _, _ = self.build()
        model.stop_W.data[...] = 0.0
        model.stop_b.data[...] = 1e9  # stop probability 1 at the first step

        def decoder_ran(*args, **kwargs):
            raise AssertionError("the decoder ran for an abstract with no sentences")

        monkeypatch.setattr(model.dec_cell, "step", decoder_ran)
        monkeypatch.setattr(generator, "token_distribution", decoder_ran)
        config = DecodeConfig(beam_size=1, max_sentences=4, max_sentence_tokens=5)
        sentences = generate_abstract(model, [["alpha"]], [0], schema, vocab, config)
        assert sentences == []

    def test_never_stopping_hits_sentence_cap(self):
        vocab, schema, model, _, _ = self.build()
        model.stop_W.data[...] = 0.0
        model.stop_b.data[...] = -1e9  # stop probability 0: run to the cap
        config = DecodeConfig(beam_size=1, max_sentences=3, max_sentence_tokens=4)
        sentences = generate_abstract(model, [["alpha"]], [0], schema, vocab, config)
        assert len(sentences) == 3

    def test_all_noise_input_rejected(self):
        vocab, schema, model, _, _ = self.build()
        config = DecodeConfig()
        with pytest.raises(ValueError, match="NOISE"):
            generate_abstract(model, [["alpha"]], [schema.noise_index], schema,
                              vocab, config)

    def test_hard_and_soft_modes_both_run(self):
        vocab, schema, model, _, _ = self.build()
        for mode in ("soft", "hard"):
            config = DecodeConfig(topic_mode=mode, beam_size=1, max_sentences=2,
                                  max_sentence_tokens=4)
            sentences = generate_abstract(model, [["alpha", "beta"]], [0],
                                          schema, vocab, config)
            assert isinstance(sentences, list)


class TestTeacherForcing(DecodingSetup):
    def test_output_counts_and_targets(self):
        vocab, schema, model, grouped, encoding = self.build()
        gold = [["alpha", "zork"], ["beta"]]
        dists, targets, stops = teacher_forced_outputs(model, encoding, grouped,
                                                       gold, vocab)
        assert len(dists) == 2 and len(targets) == 2
        assert len(stops) == 3  # one per sentence plus the final stop step
        # targets carry the end marker and use extended ids for copied tokens
        assert targets[0] == [vocab.token_to_id("alpha"), len(vocab), EOS_ID]
        assert targets[1] == [vocab.token_to_id("beta"), EOS_ID]
        assert len(dists[0]) == 3 and len(dists[1]) == 2
        for dist in dists[0]:
            assert dist.data.shape == (1, grouped.extended_size)

    def test_gold_token_absent_everywhere_becomes_unk(self):
        vocab, schema, model, grouped, encoding = self.build()
        dists, targets, stops = teacher_forced_outputs(model, encoding, grouped,
                                                       [["quuz"]], vocab)
        assert targets[0] == [UNK_ID, EOS_ID]

    def test_empty_gold_rejected(self):
        vocab, schema, model, grouped, encoding = self.build()
        with pytest.raises(ValueError):
            teacher_forced_outputs(model, encoding, grouped, [], vocab)
        with pytest.raises(ValueError):
            teacher_forced_outputs(model, encoding, grouped, [[]], vocab)


class TestBlockTeacherForcing:
    """Teacher forcing with the output layer over the example's [ΣT, H]
    block, against two references written here (float64): a per-step one
    (one `step`, one attention and one [1, V'] distribution per gold token,
    and the NLL as a chain of per-token terms) and a per-sentence one (the
    output layer and the NLL once per sentence's [T, H] block).  GOLD has
    a copied OOV target ("zork"), a target found nowhere ("quuz", UNK) and
    a one-token sentence."""

    GOLD = [["alpha", "zork", "beta"], ["gamma"], ["quuz", "delta", "."]]

    def setup_model(self):
        vocab = make_vocab()
        schema = make_schema()
        model = GeneratorModel(len(vocab), 2, embed_dim=5, hidden_dim=4, seed=9)
        paragraphs = [["alpha", "beta", "zork"], ["gamma", "delta", "alpha"]]
        example = SummarizationExample(
            title="T", paragraph_tokens=paragraphs,
            paragraph_ids=[vocab.encode(p) for p in paragraphs],
            abstract_tokens=self.GOLD,
            abstract_ids=[vocab.encode(s) for s in self.GOLD])
        return vocab, schema, model, example

    @staticmethod
    def losses(sentence_terms, stops):
        """(sentence NLL, total) from per-sentence NLLs and m+1 stop probs."""
        m = len(sentence_terms)
        nll = ad.mul(sum(sentence_terms[1:], sentence_terms[0]), 1.0 / m)
        stop_terms = [ad.mul(ad.log(1.0 - stop, floor=1e-12), -1.0) for stop in stops[:m]]
        stop_terms.append(ad.mul(ad.log(stops[m], floor=1e-12), -1.0))
        stop_loss = ad.mul(sum(stop_terms[1:], stop_terms[0]), 1.0 / (m + 1))
        return nll, nll + stop_loss

    def reference(self, model, encoding, grouped, vocab):
        """(per-step distributions, sentence NLL, total loss) the slow way."""
        state = context = ad.zeros((1, model.hidden_dim))
        dists, sentence_terms, stops = [], [], []
        for sentence in self.GOLD:
            step = predict_topic_step(model, state, context, encoding.topic_vectors, "soft")
            state, context = step.state, step.topic_context
            stops.append(step.stop_prob)
            targets = [grouped.target_id(tok, vocab) for tok in sentence] + [EOS_ID]
            inputs = [BOS_ID] + [vocab.token_to_id(tok) for tok in sentence]
            dec_state = step.decoder_init
            terms = []
            for input_id, target in zip(inputs, targets):
                x = ad.embedding_lookup(model.embed, [input_id])
                dec_state = model.dec_cell.step(x, dec_state)
                weights, attn_context = attention_step(
                    model, dec_state, encoding.token_states,
                    attention_keys(model, encoding.token_states))
                dist = token_distribution(model, dec_state, attn_context, x, weights, grouped)
                dists.append(dist)
                terms.append(ad.mul(ad.log(ad.pick(dist, 0, target), floor=1e-12), -1.0))
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            sentence_terms.append(ad.mul(total, 1.0 / len(terms)))
        stops.append(predict_topic_step(model, state, context, encoding.topic_vectors,
                                        "soft").stop_prob)
        return (dists, *self.losses(sentence_terms, stops))

    def per_sentence_reference(self, model, encoding, grouped, vocab):
        """(per-step distributions, sentence NLL, total loss) with the
        output layer and the NLL run once per sentence's [T, H] block."""
        state = context = ad.zeros((1, model.hidden_dim))
        dists, sentence_terms, stops = [], [], []
        for sentence in self.GOLD:
            step = predict_topic_step(model, state, context, encoding.topic_vectors, "soft")
            state, context = step.state, step.topic_context
            stops.append(step.stop_prob)
            targets = [grouped.target_id(tok, vocab) for tok in sentence] + [EOS_ID]
            inputs = ad.embedding_lookup(model.embed, [BOS_ID] + vocab.encode(sentence))
            dec_states = model.dec_cell.sequence(inputs, step.decoder_init, [len(targets)])
            weights, contexts = zip(*(attention_step(model, ad.rows(dec_states, t, t + 1),
                                                     encoding.token_states, encoding.attention_keys)
                                      for t in range(len(targets))))
            block = token_distribution(model, dec_states, ad.concat(contexts, axis=0), inputs,
                                       ad.concat(weights, axis=1), grouped)
            dists.extend(ad.rows(block, t, t + 1) for t in range(len(targets)))
            gold = ad.log(ad.pick(block, range(len(targets)), targets), floor=1e-12)
            sentence_terms.append(ad.mul(gold.sum(), -1.0 / len(targets)))
        stops.append(predict_topic_step(model, state, context, encoding.topic_vectors,
                                        "soft").stop_prob)
        return (dists, *self.losses(sentence_terms, stops))

    def test_distributions_and_losses_equal_per_step_reference(self):
        self.assert_equals_reference(self.reference)

    def test_distributions_and_losses_equal_per_sentence_reference(self):
        self.assert_equals_reference(self.per_sentence_reference)

    def assert_equals_reference(self, reference):
        """Distributions, sentence NLL, total loss and every leaf gradient
        of example_loss and teacher_forced_outputs, to 1e-10 in float64."""
        with ad.using_dtype(np.float64):
            vocab, schema, model, example = self.setup_model()
            params = model.parameters()
            runs = []
            for blocked in (True, False):
                with ad.tape() as recording:
                    grouped = group_paragraphs(example.paragraph_tokens, [0, 1], schema, vocab)
                    encoding = encode_topics(model, grouped)
                    if blocked:
                        rows, _, _ = teacher_forced_outputs(model, encoding, grouped,
                                                            self.GOLD, vocab)
                        dists = [row for sentence in rows for row in sentence]
                        nll, _, total = example_loss(model, example, [0, 1], schema, vocab)
                    else:
                        dists, nll, total = reference(model, encoding, grouped, vocab)
                    recording.backward(total)
                runs.append(([d.data.copy() for d in dists], nll.item(), total.item(),
                             {name: p.grad.copy() for name, p in params.items()}))
                for p in params.values():
                    p.grad = None
            (block_dists, block_nll, block_total, block_grads), \
                (ref_dists, ref_nll, ref_total, ref_grads) = runs
            assert len(block_dists) == len(ref_dists) == 4 + 2 + 4
            for got, want in zip(block_dists, ref_dists):
                assert got.shape == want.shape == (1, grouped.extended_size)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            assert abs(block_nll - ref_nll) <= 1e-10
            assert abs(block_total - ref_total) <= 1e-10
            for name, grad in ref_grads.items():
                np.testing.assert_allclose(block_grads[name], grad, rtol=0, atol=1e-10,
                                           err_msg=name)

    def test_tape_length_does_not_grow_with_input_length(self):
        vocab, schema, model, _ = self.setup_model()
        words = ["alpha", "beta", "gamma", "delta", "zork"]
        lengths = []
        for n in (10, 40):
            paragraphs = [[words[i % 5] for i in range(n)], [words[(i + 2) % 5] for i in range(n)]]
            example = SummarizationExample(
                title="T", paragraph_tokens=paragraphs,
                paragraph_ids=[vocab.encode(p) for p in paragraphs],
                abstract_tokens=self.GOLD,
                abstract_ids=[vocab.encode(s) for s in self.GOLD])
            with ad.tape() as recording:
                example_loss(model, example, [0, 1], schema, vocab)
                lengths.append(len(recording))
        assert lengths[0] == lengths[1]

    def test_one_attention_record_whatever_the_gold_length(self):
        """Teacher forcing scores every gold row in one `additive_scores`
        record, so the tape does not grow with the gold token count."""
        vocab, schema, model, _ = self.setup_model()
        paragraphs = [["alpha", "beta", "zork"], ["gamma", "delta", "alpha"]]
        lengths = []
        for tokens in (2, 9):
            gold = (["alpha", "beta", "gamma"] * 3)[:tokens]
            sentences = [gold, gold[::-1], gold]
            example = SummarizationExample(
                title="T", paragraph_tokens=paragraphs,
                paragraph_ids=[vocab.encode(p) for p in paragraphs],
                abstract_tokens=sentences, abstract_ids=[vocab.encode(s) for s in sentences])
            with ad.tape() as recording:
                example_loss(model, example, [0, 1], schema, vocab)
                scores = [vjp for _, _, vjp in recording._records
                          if vjp.__qualname__.startswith("additive_scores.")]
                assert len(scores) == 1
                lengths.append(len(recording))
        assert lengths[0] == lengths[1]


class TestPackedTeacherForcing:
    """All gold sentences as one packed decoder run, against the
    per-sentence reference of `TestBlockTeacherForcing` (float64), and the
    tape records that grow with the input."""

    # 1, 4 and 9 tokens, so 2, 5 and 10 decoder steps, stored out of length order
    GOLD = [["alpha", "zork", "beta", "."], ["gamma"],
            ["quuz", "delta", "alpha", "beta", "zork", "gamma", "alpha", "delta", "."]]

    def test_equals_per_sentence_reference(self):
        reference = TestBlockTeacherForcing()
        reference.GOLD = self.GOLD
        with ad.using_dtype(np.float64):
            vocab, schema, model, example = reference.setup_model()
            params = model.parameters()
            runs = []
            for packed in (True, False):
                with ad.tape() as recording:
                    grouped = group_paragraphs(example.paragraph_tokens, [0, 1], schema, vocab)
                    encoding = encode_topics(model, grouped)
                    if packed:
                        rows, targets, _ = teacher_forced_outputs(model, encoding, grouped,
                                                                  self.GOLD, vocab)
                        assert [len(t) for t in targets] == [5, 2, 10]
                        dists = [row for sentence in rows for row in sentence]
                        nll, _, total = example_loss(model, example, [0, 1], schema, vocab)
                    else:
                        dists, nll, total = reference.per_sentence_reference(
                            model, encoding, grouped, vocab)
                    recording.backward(total)
                runs.append(([d.data.copy() for d in dists], nll.item(), total.item(),
                             {name: p.grad.copy() for name, p in params.items()}))
                for p in params.values():
                    p.grad = None
            (got_dists, got_nll, got_total, got_grads), \
                (want_dists, want_nll, want_total, want_grads) = runs
            assert len(got_dists) == len(want_dists) == 17
            for got, want in zip(got_dists, want_dists):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            assert abs(got_nll - want_nll) <= 1e-10
            assert abs(got_total - want_total) <= 1e-10
            for name, grad in want_grads.items():
                np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10,
                                           err_msg=name)

    def test_tape_does_not_grow_with_groups_or_sentences(self, monkeypatch):
        """At a fixed number of input tokens and gold rows, more groups add
        no tape record, and each more sentence adds only its predictor step;
        the recurrences are one `bigru_sequence` record for both encoder
        directions, one `gru_sequence` for all gold sentences and one per
        predictor step, and the losses are a fixed number of records."""
        gru_rows, bigru_rows = [], []

        def counting(op, rows):
            def counted(xs, *args, **kwargs):
                rows.append(xs.data.shape[0])
                return op(xs, *args, **kwargs)
            return counted

        monkeypatch.setattr(ad, "gru_sequence", counting(ad.gru_sequence, gru_rows))
        monkeypatch.setattr(ad, "bigru_sequence", counting(ad.bigru_sequence, bigru_rows))
        vocab, schema = make_vocab(), make_schema(4)
        model = make_model(vocab, n_topics=4)
        words = ["alpha", "beta", "gamma", "delta", "zork", "."]
        tokens = [words[i % 6] for i in range(12)]
        gold = [words[i % 5] for i in range(14)]

        def tape_length(paragraphs, assignments, sentences):
            example = SummarizationExample(
                title="T", paragraph_tokens=paragraphs,
                paragraph_ids=[vocab.encode(p) for p in paragraphs],
                abstract_tokens=sentences, abstract_ids=[vocab.encode(s) for s in sentences])
            gru_rows.clear()
            bigru_rows.clear()
            with ad.tape() as recording:
                example_loss(model, example, assignments, schema, vocab)
                return len(recording)

        three = [gold[:4], gold[4:8], gold[8:12]]           # 15 decoder rows
        groups = [tape_length([tokens], [0], three),
                  tape_length([tokens[:5], tokens[5:]], [0, 2], three),
                  tape_length([tokens[:3], tokens[3:7], tokens[7:]], [0, 1, 3], three)]
        assert groups[0] == groups[1] == groups[2]
        assert sorted(gru_rows) == [1, 1, 1, 1, 15] and bigru_rows == [12]

        paragraphs, assignments = [tokens[:5], tokens[5:]], [0, 2]
        splits = [[gold], [gold[:6], gold[6:13]], three]    # 15 decoder rows each
        sentences = [tape_length(paragraphs, assignments, split) for split in splits]
        assert sorted(gru_rows) == [1, 1, 1, 1, 15] and bigru_rows == [12]
        with ad.tape() as recording:
            zero = ad.zeros((1, model.hidden_dim))
            predict_topic_step(model, zero, zero, ad.Tensor(np.ones((4, model.hidden_dim))))
            predictor = len(recording)

        def loss_records(count):
            rows = [ad.Tensor(np.full((1, 12), 0.1), requires_grad=True) for _ in range(15)]
            stops = [ad.Tensor([[0.5]], requires_grad=True) for _ in range(count + 1)]
            targets = np.array_split(np.arange(15) % 12, count)
            ends = np.cumsum([len(t) for t in targets])
            dists = [rows[end - len(t):end] for t, end in zip(targets, ends)]
            with ad.tape() as recording:
                compute_losses(dists, [t.tolist() for t in targets], stops)
                return len(recording)

        assert loss_records(1) == loss_records(2) == loss_records(3)
        for count, length in zip((2, 3), sentences[1:]):
            assert length - sentences[0] == (count - 1) * predictor


def reference_example_loss(model, example, assignments, schema, vocab, stop_weight=1.0):
    """example_loss through the full distribution: `teacher_forced_outputs`'
    [1, V'] rows, then `compute_losses`."""
    grouped = group_paragraphs(example.paragraph_tokens, assignments, schema, vocab)
    encoding = encode_topics(model, grouped)
    rows, targets, stops = teacher_forced_outputs(model, encoding, grouped,
                                                  example.abstract_tokens, vocab)
    return compute_losses(rows, targets, stops, stop_weight)


class TestGoldOnlyTraining:
    """`example_loss` reads each gold probability with `ad.gold_log_probs`
    and builds no [ΣT, V'] mixture; its losses and gradients equal the
    full-distribution reference's."""

    # "zork" is OOV and twice in the input, "alpha" three times; "gamma" and
    # "." are in the vocabulary only, and "quuz" nowhere (a UNK gold)
    PARAGRAPHS = [["alpha", "beta", "zork", "alpha"], ["zork", "delta", "alpha"]]
    GOLD = [["alpha", "zork", "beta", "alpha"], ["gamma", "quuz"], ["delta", "zork", "."]]

    def example(self, vocab):
        return SummarizationExample(
            title="T", paragraph_tokens=self.PARAGRAPHS,
            paragraph_ids=[vocab.encode(p) for p in self.PARAGRAPHS],
            abstract_tokens=self.GOLD, abstract_ids=[vocab.encode(s) for s in self.GOLD])

    # gate_b: p_gen free, saturated at 1 (OOV golds clamp) and at 0 (golds
    # absent from the input clamp); with p_gen free, "gamma"'s logit bias of
    # -1e4 clamps it
    @pytest.mark.parametrize("gate_b, clamped_bias", [(0.0, -1e4), (1e4, 0.0), (-1e4, 0.0)])
    def test_equals_full_distribution_reference_in_float64(self, gate_b, clamped_bias):
        with ad.using_dtype(np.float64):
            vocab, schema = make_vocab(), make_schema()
            model = GeneratorModel(len(vocab), 2, embed_dim=5, hidden_dim=4, seed=3)
            model.gate_b.data[...] = gate_b
            model.out_vocab_b.data[0, vocab.token_to_id("gamma")] = clamped_bias
            example, params = self.example(vocab), model.parameters()
            runs = []
            for loss_fn in (example_loss, reference_example_loss):
                with ad.tape() as recording:
                    losses = loss_fn(model, example, [0, 1], schema, vocab, stop_weight=0.7)
                    recording.backward(losses[2])
                runs.append(([loss.item() for loss in losses],
                             {name: p.grad.copy() for name, p in params.items()}))
                for p in params.values():
                    p.grad = None
            grouped = group_paragraphs(self.PARAGRAPHS, [0, 1], schema, vocab)
            rows, targets, _ = teacher_forced_outputs(model, encode_topics(model, grouped),
                                                      grouped, self.GOLD, vocab)
            gold = [row.data[0, t] for sentence, ids in zip(rows, targets)
                    for row, t in zip(sentence, ids)]
        assert min(gold) <= ad.LOG_FLOOR < max(gold)
        (got, got_grads), (want, want_grads) = runs
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-10, err_msg=name)

    def test_float32_training_is_bitwise_the_reference(self):
        """SHA-256 over the losses, every gradient and all parameters after
        three Adam steps on the toy corpus."""
        corpus = toy_summarization_corpus(20, 0)

        def digest(loss_fn):
            model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics), embed_dim=48,
                                   hidden_dim=64, seed=42)
            params = model.parameters()
            optimizer, sha = ad.Adam(params, lr=1e-3), hashlib.sha256()
            for example, assignments in zip(corpus.examples[:3], corpus.assignments):
                with ad.tape() as recording:
                    losses = loss_fn(model, example, assignments, corpus.schema, corpus.vocab)
                    recording.backward(losses[2])
                for value in [*losses, *(p.grad for p in params.values())]:
                    sha.update(np.asarray(getattr(value, "data", value)).tobytes())
                optimizer.step()
                optimizer.zero_grad()
            for p in params.values():
                sha.update(p.data.tobytes())
            return sha.hexdigest()

        assert digest(example_loss) == digest(reference_example_loss)

    def test_no_full_width_record(self):
        """The logits are the only [ΣT, V] record, and none is [ΣT, V']."""
        vocab, schema = make_vocab(), make_schema()
        model = make_model(vocab)
        with ad.tape() as recording:
            example_loss(model, self.example(vocab), [0, 1], schema, vocab)
            shapes = [out.data.shape for out, _, _ in recording._records]
        rows = sum(len(sentence) + 1 for sentence in self.GOLD)
        extended = group_paragraphs(self.PARAGRAPHS, [0, 1], schema, vocab).extended_size
        assert shapes.count((rows, len(vocab))) == 1
        assert (rows, extended) not in shapes and extended > len(vocab)


def one_hot_dist(size, index, value=1.0):
    data = np.zeros((1, size), dtype=np.float32)
    data[0, index] = value
    if value < 1.0:
        data[0, (index + 1) % size] = 1.0 - value
    return ad.Tensor(data)


class TestComputeLosses:
    def test_perfect_predictions_give_zero_loss(self):
        dists = [[one_hot_dist(8, 5), one_hot_dist(8, 3)],
                 [one_hot_dist(8, 2)]]
        targets = [[5, 3], [2]]
        stops = [ad.Tensor([[0.0]]), ad.Tensor([[0.0]]), ad.Tensor([[1.0]])]
        sent, stop, total = compute_losses(dists, targets, stops)
        assert sent.item() == 0.0
        assert stop.item() == 0.0
        assert total.item() == 0.0

    def test_uniform_distribution_gives_log_vocab(self):
        size = 50000
        uniform = ad.Tensor(np.full((1, size), 1.0 / size, dtype=np.float32))
        stops = [ad.Tensor([[0.0]]), ad.Tensor([[1.0]])]
        sent, _, _ = compute_losses([[uniform, uniform]], [[7, 9]], stops)
        np.testing.assert_allclose(sent.item(), np.log(size), rtol=1e-5)

    def test_uncertain_stop_gives_log_two(self):
        dists = [[one_hot_dist(4, 1)]]
        stops = [ad.Tensor([[0.5]]), ad.Tensor([[0.5]])]
        _, stop, _ = compute_losses(dists, [[1]], stops)
        np.testing.assert_allclose(stop.item(), np.log(2.0), rtol=1e-6)

    def test_sentence_then_example_averaging(self):
        # sentence 1: tokens with probs (0.5, 0.25) -> mean NLL (ln2 + ln4)/2
        # sentence 2: prob 0.125 -> ln 8; example mean of the two sentences
        dists = [[one_hot_dist(4, 0, 0.5), one_hot_dist(4, 1, 0.25)],
                 [one_hot_dist(4, 2, 0.125)]]
        targets = [[0, 1], [2]]
        stops = [ad.Tensor([[0.0]])] * 2 + [ad.Tensor([[1.0]])]
        sent, _, _ = compute_losses(dists, targets, stops)
        first = (np.log(2.0) + np.log(4.0)) / 2.0
        second = np.log(8.0)
        np.testing.assert_allclose(sent.item(), (first + second) / 2.0, rtol=1e-6)

    def test_stop_weight_scales_total(self):
        dists = [[one_hot_dist(4, 1, 0.5)]]
        stops = [ad.Tensor([[0.5]]), ad.Tensor([[0.5]])]
        sent, stop, total = compute_losses(dists, [[1]], stops, stop_weight=3.0)
        np.testing.assert_allclose(total.item(), sent.item() + 3.0 * stop.item(),
                                   rtol=1e-6)

    def test_zero_probability_target_is_finite(self):
        dists = [[one_hot_dist(4, 1)]]
        stops = [ad.Tensor([[0.0]]), ad.Tensor([[1.0]])]
        sent, _, _ = compute_losses(dists, [[3]], stops)  # target has zero mass
        np.testing.assert_allclose(sent.item(), -np.log(1e-12), rtol=1e-5)

    def test_count_validation(self):
        dists = [[one_hot_dist(4, 1)]]
        stops = [ad.Tensor([[0.5]])]
        with pytest.raises(ValueError):
            compute_losses([], [], stops)
        with pytest.raises(ValueError):
            compute_losses(dists, [[1], [2]], stops + stops)
        with pytest.raises(ValueError):
            compute_losses(dists, [[1]], stops)  # needs m + 1 stop probs
        with pytest.raises(ValueError):
            compute_losses(dists, [[1, 2]], stops + stops)

    def test_empty_sentence_refused(self):
        stops = [ad.Tensor([[0.5]])] * 3
        with pytest.raises(ValueError, match="^empty sentence in loss computation$"):
            compute_losses([[one_hot_dist(4, 1)], []], [[1], []], stops)


def chained_losses(sentence_dists, sentence_targets, stop_probs, stop_weight):
    """compute_losses as a chain of per-sentence and per-step terms: each
    sentence's NLL summed and averaged, each step's stop term logged and
    negated, and both folded with `ad.add`."""
    m = len(sentence_targets)
    block = ad.concat([dist for dists in sentence_dists for dist in dists], axis=0)
    flat = [target for targets in sentence_targets for target in targets]
    gold = ad.log(ad.pick(block, range(len(flat)), flat), floor=1e-12)
    ends = np.cumsum([len(targets) for targets in sentence_targets])
    sentence_terms = [ad.mul(ad.rows(gold, end - len(targets), end).sum(), -1.0 / len(targets))
                      for targets, end in zip(sentence_targets, ends)]
    sentence_loss = ad.mul(reduce(ad.add, sentence_terms), 1.0 / m)
    stop_terms = [ad.mul(ad.log(1.0 - stop, floor=1e-12), -1.0) for stop in stop_probs[:m]]
    stop_terms.append(ad.mul(ad.log(stop_probs[m], floor=1e-12), -1.0))
    stop_loss = ad.mul(reduce(ad.add, stop_terms), 1.0 / (m + 1))
    return sentence_loss, stop_loss, sentence_loss + ad.mul(stop_loss, stop_weight)


class TestWeightedSumLosses:
    """compute_losses' two weighted sums against `chained_losses`: the
    gradients into the distribution rows and the stop probabilities are
    bitwise equal, and the losses equal to within rounding (they sum in
    another order)."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    @pytest.mark.parametrize("lengths, stops", [
        ((5,), (0.3, 1.0)),
        ((3, 1), (0.0, 0.2, 0.9)),
        ((3, 6, 7), (1.0, 0.45, 0.0, 0.0)),
        ((4, 1, 3, 2), (0.1, 0.0, 0.7, 1.0, 0.6)),
    ])
    def test_equals_chained_terms(self, dtype, rtol, lengths, stops):
        rng = np.random.default_rng(sum(lengths))
        with ad.using_dtype(dtype):
            probs = rng.dirichlet(np.ones(9), size=sum(lengths))
            probs[0, :] = 0.0       # a zero-probability target, clamped
            flat = rng.integers(0, 9, size=sum(lengths))
            targets = [part.tolist() for part in np.split(flat, np.cumsum(lengths)[:-1])]
            runs = []
            for losses in (compute_losses, chained_losses):
                rows = [ad.Tensor(probs[t:t + 1], requires_grad=True) for t in range(len(probs))]
                dists = [rows[end - count:end]
                         for count, end in zip(lengths, np.cumsum(lengths))]
                stop_probs = [ad.Tensor([[p]], requires_grad=True) for p in stops]
                with ad.tape() as recording:
                    values = losses(dists, targets, stop_probs, 0.7)
                    recording.backward(values[2])
                runs.append(([v.item() for v in values],
                             np.concatenate([row.grad for row in rows]),
                             [stop.grad for stop in stop_probs]))
        (got, got_block, got_stops), (want, want_block, want_stops) = runs
        np.testing.assert_allclose(got, want, rtol=rtol)
        assert got_block.dtype == dtype
        assert got_block.tobytes() == want_block.tobytes()
        assert [g.tobytes() for g in got_stops] == [g.tobytes() for g in want_stops]


class TestExampleLossGradients:
    def test_every_parameter_matches_finite_differences(self):
        with ad.using_dtype(np.float64):
            vocab = make_vocab()
            schema = make_schema()
            model = GeneratorModel(vocab_size=len(vocab), n_topics=2, embed_dim=3,
                                   hidden_dim=3, seed=5)
            example = SummarizationExample(
                title="T",
                paragraph_tokens=[["alpha", "zork", "beta"], ["gamma"]],
                paragraph_ids=[vocab.encode(["alpha", "zork", "beta"]),
                               vocab.encode(["gamma"])],
                abstract_tokens=[["alpha", "."], ["zork"]],
                abstract_ids=[vocab.encode(["alpha", "."]), vocab.encode(["zork"])],
            )
            assignments = [0, 1]

            def loss():
                _, _, total = example_loss(model, example, assignments, schema,
                                           vocab, stop_weight=0.7)
                return total

            rng = np.random.default_rng(0)
            check_gradients(loss, model.parameters(), sample=6, rng=rng)


class TrainingSetup:
    def tiny_task(self, n=4):
        vocab = make_vocab()
        schema = make_schema()
        examples = []
        assignments = []
        surface = [["alpha", "beta"], ["gamma", "delta"]]
        gold = [[["alpha", "beta", "."]], [["gamma", "."]]]
        for i in range(n):
            pick_idx = i % 2
            examples.append(SummarizationExample(
                title=f"ex{i}",
                paragraph_tokens=[surface[pick_idx]],
                paragraph_ids=[vocab.encode(surface[pick_idx])],
                abstract_tokens=gold[pick_idx],
                abstract_ids=[vocab.encode(s) for s in gold[pick_idx]],
            ))
            assignments.append([0])
        return vocab, schema, examples, assignments


class TestTrainGenerator(TrainingSetup):
    def test_loss_decreases_and_history_is_complete(self):
        vocab, schema, examples, assignments = self.tiny_task()
        model = GeneratorModel(len(vocab), 2, embed_dim=8, hidden_dim=8, seed=1)
        history = train_generator(model, examples, assignments, examples[:2],
                                  assignments[:2], schema, vocab, epochs=5,
                                  lr_first=5e-2, lr_rest=2e-2, seed=3)
        assert len(history) == 5
        assert history[0]["lr"] == pytest.approx(5e-2)
        for row in history[1:]:
            assert row["lr"] == pytest.approx(2e-2)
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        for row in history:
            assert set(row) == {"epoch", "lr", "train_loss", "train_nll", "train_stop",
                                "grad_norm", "valid_loss", "wall_seconds"}

    def test_same_seed_bitwise_reproducible(self):
        vocab, schema, examples, assignments = self.tiny_task()

        def run():
            model = GeneratorModel(len(vocab), 2, embed_dim=6, hidden_dim=6, seed=2)
            train_generator(model, examples, assignments, [], [], schema, vocab,
                            epochs=2, lr_first=1e-2, lr_rest=1e-3, seed=7)
            return {k: v.data.copy() for k, v in model.parameters().items()}

        first, second = run(), run()
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_input_validation(self):
        vocab, schema, examples, assignments = self.tiny_task()
        model = GeneratorModel(len(vocab), 2, embed_dim=6, hidden_dim=6)
        with pytest.raises(ValueError):
            train_generator(model, examples, assignments[:1], [], [], schema, vocab)
        with pytest.raises(ValueError):
            train_generator(model, [], [], [], [], schema, vocab)
        with pytest.raises(ValueError):
            train_generator(model, examples, assignments, examples, [], schema, vocab)

    def test_keeps_best_validation_epoch(self):
        # at lr 0.1 the validation loss falls in epoch 2 and rises in epoch 3
        vocab, schema, examples, assignments = self.tiny_task()

        def run(epochs):
            model = GeneratorModel(len(vocab), 2, embed_dim=6, hidden_dim=6, seed=2)
            history = train_generator(model, examples, assignments, examples[:2],
                                      assignments[:2], schema, vocab, epochs=epochs,
                                      lr_first=0.1, lr_rest=0.1, seed=7)
            return model, history

        model, history = run(3)
        valid_losses = [row["valid_loss"] for row in history]
        best_epoch = 1 + int(np.argmin(valid_losses))
        assert best_epoch < 3
        reference, _ = run(best_epoch)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reference.parameters()[name].data), name

    def test_nan_weight_stops_before_the_first_step(self):
        vocab, schema, examples, assignments = self.tiny_task()
        model = GeneratorModel(len(vocab), 2, embed_dim=6, hidden_dim=6, seed=2)
        model.dec_cell.W_z.data[0, 0] = np.nan
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        first = examples[np.random.default_rng(7).permutation(len(examples))[0]]
        with pytest.raises(ValueError, match=f"epoch 1: non-finite loss nan on example '{first.title}'"):
            train_generator(model, examples, assignments, [], [], schema, vocab,
                            epochs=2, lr_first=1e-2, lr_rest=1e-3, seed=7)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name], equal_nan=True), name


class TestInitEmbeddings:
    """The model draws the table; pretrained vectors overwrite rows of it."""

    def model(self, embed_dim=3, seed=0):
        return GeneratorModel(len(make_vocab()), 2, embed_dim=embed_dim, hidden_dim=4,
                              seed=seed)

    def test_default_uniform_table(self):
        vocab = make_vocab()
        table = self.model(embed_dim=16, seed=3).embed.data
        assert table.shape == (len(vocab), 16)
        assert table.dtype == np.float32
        assert np.all(np.abs(table) <= 0.1)
        assert np.array_equal(table, self.model(embed_dim=16, seed=3).embed.data)
        # the seed's first draw, as one whole float64 draw cast to float32
        expected = np.random.default_rng(3).uniform(-0.1, 0.1, size=(len(vocab), 16))
        assert np.array_equal(table, expected.astype(np.float32))

    def test_pretrained_rows_copied_exactly(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta -1.0 0.0 0.5\n", encoding="utf-8")
        table = self.model().embed.data
        drawn = table.copy()
        init_embeddings(table, vocab, path, [])
        np.testing.assert_array_equal(table[vocab.token_to_id("alpha")], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table[vocab.token_to_id("beta")], [-1.0, 0.0, 0.5])
        # a word with no pretrained vector and no corpus keeps its drawn row
        gamma = vocab.token_to_id("gamma")
        assert np.array_equal(table[gamma], drawn[gamma])

    def test_unpretrained_word_takes_context_mean(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta 3.0 4.0 5.0\n", encoding="utf-8")
        corpus = [["alpha", "gamma", "beta"]]
        table = self.model().embed.data
        init_embeddings(table, vocab, path, corpus)
        np.testing.assert_allclose(table[vocab.token_to_id("gamma")],
                                   [2.0, 3.0, 4.0])  # mean of both neighbors

    def test_malformed_pretrained_file(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "vectors.txt"
        table = self.model().embed.data
        drawn = table.copy()
        path.write_text("alpha 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            init_embeddings(table, vocab, path, [])
        path.write_text("alpha 1.0 2.0 oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric"):
            init_embeddings(table, vocab, path, [])
        # the good first line is not written before the bad second is read
        path.write_text("beta 1.0 2.0 3.0\nalpha nan inf 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: non-finite"):
            init_embeddings(table, vocab, path, [["alpha", "gamma", "beta"]])
        assert np.array_equal(table, drawn)

    def test_unused_lines_give_the_same_table(self, tmp_path):
        vocab = make_vocab()
        # "zork" is no vocabulary word, but gamma's context mean reads it
        corpus = [["alpha", "gamma", "zork", "beta"]]
        used = ["alpha 1.0 2.0 3.0", "zork 0.25 -0.5 1.5", "beta 3.0 4.0 5.0"]
        unused = [f"unused{k} {k}.5 -{k}.25 {k}" for k in range(12)]
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(used) + "\n", encoding="utf-8")
        want = self.model().embed.data
        init_embeddings(want, vocab, path, corpus)
        np.testing.assert_allclose(want[vocab.token_to_id("gamma")], [4.25 / 3, 5.5 / 3, 9.5 / 3],
                                   rtol=1e-6)
        path.write_text("\n".join(unused[:4] + used[:1] + unused[4:8] + used[1:] + unused[8:])
                        + "\n", encoding="utf-8")
        got = self.model().embed.data
        init_embeddings(got, vocab, path, corpus)
        assert got.tobytes() == want.tobytes()
        # a bad line is refused even where no row would take its vector
        table = self.model().embed.data
        drawn = table.copy()
        path.write_text("\n".join(used + ["unused 1.0 oops 2.0"]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":4: non-numeric"):
            init_embeddings(table, vocab, path, corpus)
        assert np.array_equal(table, drawn)

    def test_vectors_change_only_the_rows_they_name(self, tmp_path):
        vocab = make_vocab()
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta 3.0 4.0 5.0\n", encoding="utf-8")
        model = self.model(seed=5)
        init_embeddings(model.embed.data, vocab, path, [["alpha", "gamma", "beta"]])
        # the table is the seed's uniform draw with the file's rows and the
        # context mean written over it
        expected = np.random.default_rng(5).uniform(-0.1, 0.1, size=(len(vocab), 3))
        expected = expected.astype(np.float32)
        expected[vocab.token_to_id("alpha")] = [1.0, 2.0, 3.0]
        expected[vocab.token_to_id("beta")] = [3.0, 4.0, 5.0]
        expected[vocab.token_to_id("gamma")] = [2.0, 3.0, 4.0]
        assert np.array_equal(model.embed.data, expected)
        # every other weight is what the same seed draws without vectors
        plain = self.model(seed=5).parameters()
        for name, p in model.parameters().items():
            if name != "embed":
                assert np.array_equal(p.data, plain[name].data), name

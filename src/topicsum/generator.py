"""Topic-grouped encoding and pointer-generator abstract decoding.

The pipeline per article: paragraphs are grouped by their detected topic
(NOISE dropped, each group truncated), a BiGRU encodes every group into
per-token states and one group vector, a recurrent topic predictor walks
sentence by sentence (emitting a stop probability and a topic-mixed
decoder initialization), and a pointer-generator GRU decodes each sentence
with attention over all group token states, able to copy out-of-vocabulary
input tokens through extended ids.

What runs step by step: the topic predictor (its next input is its own
topic context), beam search (its next input is its own choice), and in
training only the recurrences.  A step and a sequence are both one
`ad.gru_sequence`, so the GRU update has one implementation.  Independent
sequences of known inputs, stored one after another, run as one
`GRUCell.sequence`: all topic groups in each encoder direction, and in
teacher forcing all gold sentences, from the decoder inits that the
predictor computes first.  Attention, over keys computed once per example,
and the output projection, vocabulary softmax, copy gate, copy scatter and
NLL then run once over the example's [ΣT, H] block: every sentence's
states, one row per gold token, in sentence order.

The predictor never reads decoded tokens, so generation runs it first and
then beam-searches all sentences in lockstep: every live hypothesis of every
unfinished sentence is one row of an [R, H] block, and each search step runs
the embedding lookup, the decoder GRU step, attention and the output
distribution once over that block.  Each sentence keeps its own beam.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import SummarizationExample, TopicSchema
from .text import BOS_ID, EOS_ID, UNK_ID, Vocabulary

__all__ = [
    "DecodeConfig",
    "TopicGroup",
    "TopicGroups",
    "group_paragraphs",
    "GRUCell",
    "GeneratorModel",
    "TopicEncoding",
    "encode_topics",
    "TopicStep",
    "predict_topic_step",
    "attention_step",
    "token_distribution",
    "beam_candidates",
    "decode_sentences",
    "decode_sentence",
    "generate_abstract",
    "teacher_forced_outputs",
    "compute_losses",
    "example_loss",
    "train_generator",
    "init_embeddings",
]

logger = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    """Knobs shared by generation and training-time decoding."""

    topic_mode: str = "soft"
    stop_threshold: float = 0.5
    max_sentences: int = 10
    max_sentence_tokens: int = 60
    beam_size: int = 5
    ttg_cap: int = 400

    def __post_init__(self):
        if self.topic_mode not in ("soft", "hard"):
            raise ValueError(f"topic_mode must be 'soft' or 'hard', got '{self.topic_mode}'")
        if not 0.0 < self.stop_threshold < 1.0:
            raise ValueError(f"stop_threshold must lie in (0, 1), got {self.stop_threshold}")
        if self.max_sentences < 1 or self.max_sentence_tokens < 1:
            raise ValueError("sentence and token caps must be at least 1")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be at least 1, got {self.beam_size}")
        if self.ttg_cap < 1:
            raise ValueError(f"ttg_cap must be at least 1, got {self.ttg_cap}")


# ---------------------------------------------------------------------------
# topic grouping

@dataclass
class TopicGroup:
    """All input tokens assigned to one topic, in input order."""

    tokens: list[str]
    token_ids: list[int]       # vocabulary ids, OOV as UNK
    extended_ids: list[int]    # vocabulary ids, OOV mapped past the vocab end

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class TopicGroups:
    """One TopicGroup per schema topic plus the example's OOV token list."""

    groups: list[TopicGroup]
    oov_tokens: list[str]
    vocab_size: int

    @property
    def extended_size(self) -> int:
        return self.vocab_size + len(self.oov_tokens)

    @property
    def total_tokens(self) -> int:
        return sum(len(g) for g in self.groups)

    def target_id(self, token: str, vocab: Vocabulary) -> int:
        """Gold-side encoding: vocab id, else this example's extended id,
        else UNK (the token is absent from both vocab and input)."""
        if token in vocab:
            return vocab.token_to_id(token)
        try:
            return self.vocab_size + self.oov_tokens.index(token)
        except ValueError:
            return UNK_ID


def group_paragraphs(paragraphs: Sequence[Sequence[str]], assignments: Sequence[int],
                     schema: TopicSchema, vocab: Vocabulary, cap: int = 400) -> TopicGroups:
    """Concatenate paragraphs per assigned topic, drop NOISE, truncate each
    group to `cap` tokens, and assign extended ids to OOV input tokens."""
    if len(paragraphs) != len(assignments):
        raise ValueError(f"{len(paragraphs)} paragraphs but {len(assignments)} topic assignments")
    if cap < 1:
        raise ValueError(f"truncation cap must be at least 1, got {cap}")
    n_topics = len(schema.topics)
    noise = schema.noise_index
    buckets: list[list[str]] = [[] for _ in range(n_topics)]
    for tokens, topic in zip(paragraphs, assignments):
        if topic == noise:
            continue
        if not 0 <= topic < n_topics:
            raise ValueError(f"topic assignment {topic} outside [0, {noise}]")
        buckets[topic].extend(tokens)
    oov_tokens: list[str] = []
    oov_index: dict[str, int] = {}
    groups: list[TopicGroup] = []
    for bucket in buckets:
        kept = bucket[:cap]
        ids = vocab.encode(kept)
        extended = []
        for token, token_id in zip(kept, ids):
            if token_id != UNK_ID or token in vocab:
                extended.append(token_id)
                continue
            if token not in oov_index:
                oov_index[token] = len(oov_tokens)
                oov_tokens.append(token)
            extended.append(len(vocab) + oov_index[token])
        groups.append(TopicGroup(tokens=list(kept), token_ids=ids, extended_ids=extended))
    return TopicGroups(groups=groups, oov_tokens=oov_tokens, vocab_size=len(vocab))


# ---------------------------------------------------------------------------
# model

class GRUCell:
    """GRU cell over [1, hidden] row states or [B, hidden] blocks of them;
    its update is written once, in the fused `ad.gru_sequence`."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.W_z = ad.parameter(rng, (input_dim, hidden_dim))
        self.U_z = ad.parameter(rng, (hidden_dim, hidden_dim))
        self.b_z = ad.zero_parameter((1, hidden_dim))
        self.W_r = ad.parameter(rng, (input_dim, hidden_dim))
        self.U_r = ad.parameter(rng, (hidden_dim, hidden_dim))
        self.b_r = ad.zero_parameter((1, hidden_dim))
        self.W_h = ad.parameter(rng, (input_dim, hidden_dim))
        self.U_h = ad.parameter(rng, (hidden_dim, hidden_dim))
        self.b_h = ad.zero_parameter((1, hidden_dim))

    def step(self, x: ad.Tensor, h: ad.Tensor) -> ad.Tensor:
        """The [B, H] states after one step of B independent sequences, from
        states h [B, H] on inputs x [B, input]: a one-step `ad.gru_sequence`."""
        return self.sequence(x, h, lengths=[1] * h.data.shape[0])

    def sequence(self, xs: ad.Tensor, h0: ad.Tensor, reverse: bool = False,
                 lengths: Sequence[int] | None = None) -> ad.Tensor:
        """States after each row of xs [T, input] from the [1, H] state h0,
        last row first if `reverse`.

        With `lengths`, xs holds B sequences one after another, of those
        lengths in any order, and h0 [B, H] one start per sequence; a reverse
        run starts each sequence at its own last input.  The states come back
        in the same layout.
        """
        expected = 1 if lengths is None else len(lengths)
        if h0.data.shape[0] != expected:
            raise ValueError(f"{expected} sequence(s) start from a [{expected}, H] state, "
                             f"got {h0.data.shape}")
        return ad.gru_sequence(xs, h0, self.W_z, self.U_z, self.b_z, self.W_r, self.U_r,
                               self.b_r, self.W_h, self.U_h, self.b_h, reverse=reverse,
                               lengths=lengths)

    def parameters(self) -> dict[str, ad.Tensor]:
        return {"W_z": self.W_z, "U_z": self.U_z, "b_z": self.b_z,
                "W_r": self.W_r, "U_r": self.U_r, "b_r": self.b_r,
                "W_h": self.W_h, "U_h": self.U_h, "b_h": self.b_h}


class GeneratorModel:
    """All trainable tensors of the abstract generator."""

    def __init__(self, vocab_size: int, n_topics: int, embed_dim: int = 300,
                 hidden_dim: int = 512, seed: int = 0,
                 embeddings: np.ndarray | None = None):
        if n_topics < 1:
            raise ValueError(f"need at least one topic, got {n_topics}")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.n_topics = n_topics
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        if embeddings is None:
            self.embed = ad.parameter(rng, (vocab_size, embed_dim))
        else:
            if embeddings.shape != (vocab_size, embed_dim):
                raise ValueError(f"embedding table shape {embeddings.shape}, "
                                 f"expected {(vocab_size, embed_dim)}")
            self.embed = ad.Tensor(embeddings, requires_grad=True)
        # topic-group encoder
        self.enc_fwd = GRUCell(embed_dim, hidden_dim, rng)
        self.enc_bwd = GRUCell(embed_dim, hidden_dim, rng)
        self.enc_token_W = ad.parameter(rng, (2 * hidden_dim, hidden_dim))
        self.enc_token_b = ad.zero_parameter((1, hidden_dim))
        self.enc_topic_W = ad.parameter(rng, (2 * hidden_dim, hidden_dim))
        self.enc_topic_b = ad.zero_parameter((1, hidden_dim))
        # sentence-level topic predictor
        self.pred_cell = GRUCell(hidden_dim, hidden_dim, rng)
        self.topic_W = ad.parameter(rng, (hidden_dim, n_topics))
        self.topic_b = ad.zero_parameter((1, n_topics))
        self.stop_W = ad.parameter(rng, (hidden_dim, 1))
        self.stop_b = ad.zero_parameter((1, 1))
        # attention
        self.attn_token_W = ad.parameter(rng, (hidden_dim, hidden_dim))
        self.attn_state_W = ad.parameter(rng, (hidden_dim, hidden_dim))
        self.attn_b = ad.zero_parameter((1, hidden_dim))
        self.attn_v = ad.parameter(rng, (hidden_dim, 1))
        # sentence decoder
        self.dec_cell = GRUCell(embed_dim, hidden_dim, rng)
        self.out_hidden_W = ad.parameter(rng, (2 * hidden_dim, hidden_dim))
        self.out_hidden_b = ad.zero_parameter((1, hidden_dim))
        self.out_vocab_W = ad.parameter(rng, (hidden_dim, vocab_size))
        self.out_vocab_b = ad.zero_parameter((1, vocab_size))
        # copy gate (its state weight is distinct from the attention one)
        self.gate_context_W = ad.parameter(rng, (hidden_dim, 1))
        self.gate_state_W = ad.parameter(rng, (hidden_dim, 1))
        self.gate_input_W = ad.parameter(rng, (embed_dim, 1))
        self.gate_b = ad.zero_parameter((1, 1))

    def parameters(self) -> dict[str, ad.Tensor]:
        params: dict[str, ad.Tensor] = {"embed": self.embed}
        for prefix, cell in (("enc_fwd", self.enc_fwd), ("enc_bwd", self.enc_bwd),
                             ("pred_cell", self.pred_cell), ("dec_cell", self.dec_cell)):
            for name, tensor in cell.parameters().items():
                params[f"{prefix}.{name}"] = tensor
        params.update({
            "enc_token_W": self.enc_token_W, "enc_token_b": self.enc_token_b,
            "enc_topic_W": self.enc_topic_W, "enc_topic_b": self.enc_topic_b,
            "topic_W": self.topic_W, "topic_b": self.topic_b,
            "stop_W": self.stop_W, "stop_b": self.stop_b,
            "attn_token_W": self.attn_token_W, "attn_state_W": self.attn_state_W,
            "attn_b": self.attn_b, "attn_v": self.attn_v,
            "out_hidden_W": self.out_hidden_W, "out_hidden_b": self.out_hidden_b,
            "out_vocab_W": self.out_vocab_W, "out_vocab_b": self.out_vocab_b,
            "gate_context_W": self.gate_context_W, "gate_state_W": self.gate_state_W,
            "gate_input_W": self.gate_input_W, "gate_b": self.gate_b,
        })
        return params


# ---------------------------------------------------------------------------
# encoding

@dataclass
class TopicEncoding:
    """BiGRU view of the grouped input: one vector per topic, one state per
    kept input token, and what every decoder step reads of them: the
    attention keys and the extended id that receives each token's copy mass
    (states and keys are None when every group is empty)."""

    topic_vectors: ad.Tensor                 # [n_topics, hidden]
    token_states: ad.Tensor | None           # [total_tokens, hidden]
    attention_keys: ad.Tensor | None         # token_states @ attn_token_W
    extended_ids: np.ndarray                 # [total_tokens] int64


def bigru_states(model: GeneratorModel, token_ids: Sequence[int],
                 lengths: Sequence[int] | None = None):
    """Forward and backward GRU states of token sequences.

    `token_ids` holds the sequences one after another and `lengths` their
    lengths (by default one sequence).  Each direction is one run over all
    of them (see `GRUCell.sequence`); the backward run starts each sequence
    at its own last token.  Returns (forward [n, H], backward [n, H], final
    forward [B, H], final backward [B, H]) in input order; backward row t of
    a sequence has consumed its tokens from the last down to t.
    """
    lengths = [len(token_ids)] if lengths is None else list(lengths)
    vectors = ad.embedding_lookup(model.embed, token_ids)
    start = ad.zeros((len(lengths), model.hidden_dim))
    fwd, bwd = (cell.sequence(vectors, start, reverse, lengths)
                for cell, reverse in ((model.enc_fwd, False), (model.enc_bwd, True)))
    ends = np.cumsum(lengths)
    return fwd, bwd, ad.take(fwd, ends - 1), ad.take(bwd, ends - lengths)


def encode_topics(model: GeneratorModel, grouped: TopicGroups) -> TopicEncoding:
    """Encode all non-empty groups in one BiGRU run per direction; empty
    groups get a zero topic vector."""
    if len(grouped.groups) != model.n_topics:
        raise ValueError(f"{len(grouped.groups)} groups for a {model.n_topics}-topic model")
    kept = [group for group in grouped.groups if len(group)]
    if not kept:
        return TopicEncoding(topic_vectors=ad.zeros((model.n_topics, model.hidden_dim)),
                             token_states=None, attention_keys=None,
                             extended_ids=_input_extended_ids(grouped))
    fwd, bwd, final_fwd, final_bwd = bigru_states(
        model, [i for group in kept for i in group.token_ids], [len(group) for group in kept])
    token_states = ad.affine(ad.concat([fwd, bwd], axis=1),
                             model.enc_token_W, model.enc_token_b)          # [n, H]
    topic_vectors = ad.affine(ad.concat([final_fwd, final_bwd], axis=1),
                              model.enc_topic_W, model.enc_topic_b)         # [G', H]
    n_empty = model.n_topics - len(kept)
    if n_empty:
        # the kept groups' rows, then one zero row per empty group, put
        # back in group order
        stacked = ad.concat([topic_vectors, ad.zeros((n_empty, model.hidden_dim))], axis=0)
        topic_vectors = ad.take(stacked, np.argsort(
            np.argsort([len(group) == 0 for group in grouped.groups], kind="stable")))
    return TopicEncoding(topic_vectors=topic_vectors, token_states=token_states,
                         attention_keys=attention_keys(model, token_states),
                         extended_ids=_input_extended_ids(grouped))


def _input_extended_ids(grouped: TopicGroups) -> np.ndarray:
    """Extended id of every kept input token, in token-state order."""
    return np.array([ext for group in grouped.groups for ext in group.extended_ids],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# topic predictor

@dataclass
class TopicStep:
    state: ad.Tensor          # recurrent predictor state, [1, H]
    topic_probs: ad.Tensor    # [1, n_topics]
    topic_context: ad.Tensor  # mixed (soft) or selected (hard) topic vector
    decoder_init: ad.Tensor   # state + topic context
    stop_prob: ad.Tensor      # [1, 1]


def predict_topic_step(model: GeneratorModel, prev_state: ad.Tensor,
                       prev_context: ad.Tensor, topic_vectors: ad.Tensor,
                       mode: str = "soft") -> TopicStep:
    """One predictor step: advance the GRU on the previous topic context,
    score topics, mix (or select) a topic vector, and score stopping."""
    state = model.pred_cell.step(prev_context, prev_state)
    topic_probs = ad.softmax(ad.affine(state, model.topic_W, model.topic_b), axis=1)
    if mode == "soft":
        context = ad.matmul(topic_probs, topic_vectors)          # [1, H]
    elif mode == "hard":
        best = int(np.argmax(topic_probs.data))
        context = ad.row(topic_vectors, best)
    else:
        raise ValueError(f"topic_mode must be 'soft' or 'hard', got '{mode}'")
    decoder_init = state + context
    stop_prob = ad.sigmoid(ad.affine(state, model.stop_W, model.stop_b))
    return TopicStep(state=state, topic_probs=topic_probs, topic_context=context,
                     decoder_init=decoder_init, stop_prob=stop_prob)


def _topic_steps(model: GeneratorModel, encoding: TopicEncoding, mode: str):
    """Predictor steps from a zero state, each fed the previous step's state
    and topic context; lazy, so the caller decides when to stop."""
    state = context = ad.zeros((1, model.hidden_dim))
    while True:
        step = predict_topic_step(model, state, context, encoding.topic_vectors, mode)
        yield step
        state, context = step.state, step.topic_context


# ---------------------------------------------------------------------------
# attention and the output distribution

def attention_keys(model: GeneratorModel, token_states: ad.Tensor) -> ad.Tensor:
    """The state-independent term of every attention score, [n, H]."""
    return ad.matmul(token_states, model.attn_token_W)


def attention_step(model: GeneratorModel, state: ad.Tensor,
                   token_states: ad.Tensor | None, keys: ad.Tensor | None = None):
    """Additive attention of each of R decoder states [R, H] over all n
    token states.

    `keys` are `attention_keys(model, token_states)`, computed here when not
    given.  The states' query terms are one affine over the block; the
    scores are one `ad.additive_scores` record, normalized over the n
    positions.  Returns (weights [n, R], one column per state, contexts
    [R, H]).
    """
    if token_states is None or token_states.data.shape[0] == 0:
        raise ValueError("attention requires at least one encoded input token")
    if keys is None:
        keys = attention_keys(model, token_states)
    queries = ad.affine(state, model.attn_state_W, model.attn_b)
    weights = ad.softmax(ad.additive_scores(keys, queries, model.attn_v), axis=0)
    context = ad.matmul(ad.transpose(weights), token_states)     # [R, H]
    return weights, context


def token_distribution(model: GeneratorModel, state: ad.Tensor, context: ad.Tensor,
                       dec_input: ad.Tensor, weights: ad.Tensor, grouped: TopicGroups,
                       extended_ids: np.ndarray | None = None) -> ad.Tensor:
    """Mix the vocabulary softmax with the copy distribution, for T decoder
    steps at once.

    state and context are [T, H], dec_input [T, E], and weights [n, T] (one
    attention column per step).  Output is [T, vocab + n_oov]; the copy mass
    lands on the extended id of every attended input position, so OOV input
    tokens stay reachable.  `extended_ids` are the encoding's, rebuilt from
    `grouped` when not given.

    Training reads gold entries of the whole block; beam search keeps only
    each row's best few, so it scores them with `beam_candidates`, which
    returns this block's values for those entries without building it.
    """
    if extended_ids is None:
        extended_ids = _input_extended_ids(grouped)
    if weights.data.shape[0] != extended_ids.size:
        raise ValueError(f"{weights.data.shape[0]} attention weights for "
                         f"{extended_ids.size} input positions")
    features = ad.concat([state, context], axis=1)               # [T, 2H]
    logits = ad.affine(ad.affine(features, model.out_hidden_W, model.out_hidden_b),
                       model.out_vocab_W, model.out_vocab_b)     # [T, V]
    vocab_probs = ad.softmax(logits, axis=1)
    p_gen = ad.sigmoid(ad.matmul(context, model.gate_context_W)
                       + ad.matmul(state, model.gate_state_W)
                       + ad.matmul(dec_input, model.gate_input_W)
                       + model.gate_b)                           # [T, 1]
    copy_probs = ad.scatter_sum(ad.transpose(weights), extended_ids, grouped.extended_size)
    n_oov = grouped.extended_size - grouped.vocab_size
    if n_oov:
        vocab_probs = ad.concat([vocab_probs, ad.zeros((state.data.shape[0], n_oov))], axis=1)
    return vocab_probs * p_gen + copy_probs * (1.0 - p_gen)


# A word whose exp falls short of another's by a relative gap below this
# many eps may still get the same log-probability.  Above the 1e-12 clamp
# |log p| < 32, where a log-probability's ulp is at most 16 eps, so the
# margin spans 32 of its ulps: room for the rounding of the division, the
# product and numpy's log, which is within a few ulps.
_TIE_MARGIN_EPS = 512


def beam_candidates(model: GeneratorModel, state: np.ndarray, context: np.ndarray,
                    dec_input: np.ndarray, weights: np.ndarray, input_ids: np.ndarray,
                    inverse: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` best extended ids of every row of a beam step, with their
    log-probabilities, without building the [R, V'] mixture.

    The arguments are `token_distribution`'s as arrays (state and context
    [R, H], dec_input [R, E], weights [n, R]), with the input's distinct
    extended ids, sorted, and each input position's index in them:
    `np.unique(extended_ids, return_inverse=True)`.  Returns (ids, scores),
    both [R, min(count, V')], each row by score descending and lower id
    first on ties: bitwise what `token_distribution`, a log clamped at 1e-12
    and a stable descending sort keep.

    Every input id is a candidate.  Any other word's probability is
    p_gen · softmax, which never falls as its logit grows, so a row's other
    candidates are the `count` lowest other ids, which win the ties at the
    1e-12 clamp, and the row's `count` best logits of the rest.  A row
    where the best word left out comes within rounding of the last one
    picked, above the clamp, scores every word.  Runs on arrays and records
    nothing on a tape.
    """
    features = np.concatenate([state, context], axis=1)
    hidden = features @ model.out_hidden_W.data + model.out_hidden_b.data
    ex = hidden @ model.out_vocab_W.data + model.out_vocab_b.data    # logits, then exp
    ex -= ex.max(axis=1, keepdims=True)
    np.exp(ex, out=ex)
    total = ex.sum(axis=1, keepdims=True)
    # `ad.sigmoid`'s values, with no tape record
    p_gen = ad._sigmoid_values(context @ model.gate_context_W.data
                               + state @ model.gate_state_W.data
                               + dec_input @ model.gate_input_W.data
                               + model.gate_b.data)                 # [R, 1]
    rows = np.arange(ex.shape[0])
    # copy mass per distinct input id, added in position order as
    # `ad.scatter_sum` adds it
    copy = np.zeros((input_ids.size, rows.size), dtype=ex.dtype)
    np.add.at(copy, inverse, weights)
    copied = copy.T * (1.0 - p_gen)                                 # [R, U]
    n_vocab = np.searchsorted(input_ids, model.vocab_size)          # input ids in the vocabulary
    # the other words: the `count` lowest ids, which are the ones kept among
    # words tied at the clamp, then the rest's `count` best by repeated
    # argmax; a word taken is masked below every exp
    free = np.ones(min(model.vocab_size, count + n_vocab), dtype=bool)
    free[input_ids[:np.searchsorted(input_ids, free.size)]] = False
    known = np.concatenate([input_ids[:n_vocab], np.flatnonzero(free)[:count]])
    n_words = known.size + min(count, model.vocab_size - known.size)
    # candidate columns: the known vocabulary ids, the picks, the OOV input ids
    ids = np.empty((rows.size, n_words + input_ids.size - n_vocab), dtype=np.int64)
    ids[:, :known.size] = known
    ids[:, n_words:] = input_ids[n_vocab:]
    taken = np.empty((rows.size, n_words), dtype=ex.dtype)          # the words' exps
    taken[:, :known.size] = ex[:, known]
    ex[:, known] = -1.0
    flat, offsets = ex.reshape(-1), rows * ex.shape[1]
    for j in range(known.size, n_words):
        ids[:, j] = best = ex.argmax(axis=1)
        at = best + offsets
        taken[:, j] = flat[at]
        flat[at] = -1.0
    values = np.empty(ids.shape, dtype=ex.dtype)
    values[:, :n_words] = taken / total * p_gen
    values[:, :n_vocab] += copied[:, :n_vocab]
    values[:, n_words:] = copied[:, n_vocab:]
    scores = np.log(np.maximum(values, 1e-12))
    order = np.lexsort((ids, -scores), axis=1)[:, :count]
    best_ids, best_scores = ids[rows[:, None], order], scores[rows[:, None], order]
    if n_words == model.vocab_size:
        return best_ids, best_scores
    # a word left out can tie a pick only if the best word left out comes
    # within the margin of the last pick; at the clamp, the lowest ids
    # taken above win the ties
    runner_up = ex.max(axis=1)
    near = runner_up >= taken[:, -1] * (1 - _TIE_MARGIN_EPS * np.finfo(ex.dtype).eps)
    for row in np.flatnonzero(near):
        if runner_up[row] / total[row, 0] * p_gen[row, 0] <= 1e-12:
            continue
        full = np.zeros(max(model.vocab_size, int(input_ids[-1]) + 1), dtype=ex.dtype)
        full[:model.vocab_size] = np.log(np.maximum(ex[row] / total[row] * p_gen[row], 1e-12))
        full[ids[row]] = scores[row]                 # the candidates, masked in `ex`
        top = np.flatnonzero(full >= np.partition(full, full.size - count)[full.size - count])
        best_ids[row] = top[np.lexsort((top, -full[top]))[:count]]
        best_scores[row] = full[best_ids[row]]
    return best_ids, best_scores


# ---------------------------------------------------------------------------
# sentence decoding

@dataclass
class _Hypothesis:
    tokens: list[int]          # emitted extended ids, EOS excluded
    log_prob: float


def decode_sentences(model: GeneratorModel, decoder_inits: Sequence[ad.Tensor],
                     encoding: TopicEncoding, grouped: TopicGroups,
                     vocab: Vocabulary, config: DecodeConfig) -> list[list[str]]:
    """Beam-search one sentence from each [1, H] decoder init (beam 1 is
    greedy), all in lockstep.

    Every step runs the decoder once over an [R, H] block whose rows are the
    live hypotheses of all unfinished sentences.  Each sentence keeps its own
    beam: hypotheses are pruned by summed log-probability, and the returned
    sentence maximizes the length-normalized log-probability among its
    finished hypotheses.
    """
    return [[vocab.id_to_token(token_id) if token_id < len(vocab)
             else grouped.oov_tokens[token_id - len(vocab)] for token_id in token_ids]
            for _, token_ids in _beam_search(model, decoder_inits, encoding, grouped, config)]


def _beam_search(model: GeneratorModel, decoder_inits: Sequence[ad.Tensor],
                 encoding: TopicEncoding, grouped: TopicGroups,
                 config: DecodeConfig) -> list[tuple[float, list[int]]]:
    """decode_sentences before the surfaces: each sentence's best
    length-normalized log-probability and its extended ids.

    Each step scores only what a hypothesis can keep: `beam_candidates`
    gives every row its `beam_size + 1` best tokens and their
    log-probabilities, with no [R, V'] distribution built."""
    if not decoder_inits:
        return []
    beam = config.beam_size
    input_ids, inverse = np.unique(encoding.extended_ids, return_inverse=True)
    live = [[_Hypothesis(tokens=[], log_prob=0.0)] for _ in decoder_inits]
    finished: list[list[tuple[float, list[int]]]] = [[] for _ in decoder_inits]
    # the live hypotheses' rows in `states`, and the token each one feeds next
    states = np.concatenate([init.data for init in decoder_inits])
    parents = list(range(len(decoder_inits)))
    prev_ids = [BOS_ID] * len(decoder_inits)
    while parents:
        # extended ids (copied OOV tokens) feed back as UNK
        x = ad.embedding_lookup(model.embed, [i if i < model.vocab_size else UNK_ID
                                              for i in prev_ids])
        block = model.dec_cell.step(x, ad.Tensor(states[parents]))
        weights, context = attention_step(model, block, encoding.token_states,
                                          encoding.attention_keys)
        best, log_probs = (part.tolist() for part in beam_candidates(
            model, block.data, context.data, x.data, weights.data, input_ids, inverse,
            beam + 1))
        states, parents, prev_ids, row = block.data, [], [], 0
        for sentence, hyps in enumerate(live):
            candidates: list[tuple[float, int, _Hypothesis, int]] = []
            for hyp in hyps:
                for token_id, log_prob in zip(best[row], log_probs[row]):
                    candidates.append((hyp.log_prob + log_prob, token_id, hyp, row))
                row += 1
            # deterministic order: higher score first, lower token id on ties
            candidates.sort(key=lambda c: (-c[0], c[1]))
            next_live: list[_Hypothesis] = []
            for score, token_id, hyp, parent in candidates[:beam]:
                # finished hypotheses consume beam slots, so beam 1 is greedy
                emitted = len(hyp.tokens) + 1
                if token_id == EOS_ID:
                    finished[sentence].append((score / emitted, hyp.tokens))
                    continue
                tokens = hyp.tokens + [token_id]
                if len(tokens) >= config.max_sentence_tokens:
                    finished[sentence].append((score / emitted, tokens))
                    continue
                next_live.append(_Hypothesis(tokens=tokens, log_prob=score))
                parents.append(parent)
                prev_ids.append(token_id)
            live[sentence] = next_live
    return [max(done, key=lambda item: item[0]) for done in finished]


def decode_sentence(model: GeneratorModel, decoder_init: ad.Tensor,
                    encoding: TopicEncoding, grouped: TopicGroups,
                    vocab: Vocabulary, config: DecodeConfig) -> list[str]:
    """Beam-search one sentence: `decode_sentences` with a single init."""
    return decode_sentences(model, [decoder_init], encoding, grouped, vocab, config)[0]


def generate_abstract(model: GeneratorModel, paragraphs: Sequence[Sequence[str]],
                      assignments: Sequence[int], schema: TopicSchema,
                      vocab: Vocabulary, config: DecodeConfig) -> list[list[str]]:
    """Generate an abstract (list of token-list sentences) for one article.

    The topic predictor never reads decoded tokens, so it runs first, up to
    its stop decision, and then every sentence is decoded in lockstep.
    Raises if every paragraph lands in NOISE (no input to attend over).
    """
    grouped = group_paragraphs(paragraphs, assignments, schema, vocab, config.ttg_cap)
    if grouped.total_tokens == 0:
        raise ValueError("no usable input: every paragraph was assigned to NOISE or empty")
    encoding = encode_topics(model, grouped)
    decoder_inits: list[ad.Tensor] = []
    for step in islice(_topic_steps(model, encoding, config.topic_mode), config.max_sentences):
        if step.stop_prob.item() > config.stop_threshold:
            break
        decoder_inits.append(step.decoder_init)
    return decode_sentences(model, decoder_inits, encoding, grouped, vocab, config)


# ---------------------------------------------------------------------------
# training-time teacher forcing and losses

def teacher_forced_outputs(model: GeneratorModel, encoding: TopicEncoding,
                           grouped: TopicGroups, gold_sentences: Sequence[Sequence[str]],
                           vocab: Vocabulary, mode: str = "soft"):
    """Run predictor and decoder with gold inputs.

    Returns (per-sentence lists of [1, V'] token distributions, one per
    step, per-sentence gold extended ids with EOS appended, stop
    probabilities for the m+1 predictor steps).
    """
    block, targets, stops = _teacher_forced_block(model, encoding, grouped,
                                                  gold_sentences, vocab, mode)
    ends = np.cumsum([len(sentence) for sentence in targets])
    rows = [[ad.row(block, t) for t in range(end - len(sentence), end)]
            for sentence, end in zip(targets, ends)]
    return rows, targets, stops


def _teacher_forced_block(model: GeneratorModel, encoding: TopicEncoding,
                          grouped: TopicGroups, gold_sentences: Sequence[Sequence[str]],
                          vocab: Vocabulary, mode: str):
    """teacher_forced_outputs with every distribution in one [ΣT, V']
    block, sentence after sentence.  The predictor never reads decoded
    tokens, so its steps run first; the decoder GRU then runs every
    sentence's T gold inputs in one `GRUCell.sequence`, each sentence from
    its own decoder init, and attention and the output layer run once over
    the example's rows."""
    if not gold_sentences:
        raise ValueError("gold abstract has no sentences")
    if not all(gold_sentences):
        raise ValueError("gold sentences must be non-empty")
    steps = list(islice(_topic_steps(model, encoding, mode), len(gold_sentences) + 1))
    targets = [[grouped.target_id(tok, vocab) for tok in sentence] + [EOS_ID]
               for sentence in gold_sentences]
    inputs = ad.embedding_lookup(model.embed, [token_id for sentence in gold_sentences
                                               for token_id in [BOS_ID] + vocab.encode(sentence)])
    lengths = [len(sentence) for sentence in targets]
    states = model.dec_cell.sequence(
        inputs, ad.concat([step.decoder_init for step in steps[:-1]], axis=0),
        lengths=lengths)                                                 # [ΣT, H]
    weights, contexts = attention_step(model, states, encoding.token_states,
                                       encoding.attention_keys)
    block = token_distribution(model, states, contexts, inputs, weights, grouped,
                               encoding.extended_ids)
    return block, targets, [step.stop_prob for step in steps]


def compute_losses(sentence_dists: Sequence[Sequence[ad.Tensor]] | ad.Tensor,
                   sentence_targets: Sequence[Sequence[int]],
                   stop_probs: Sequence[ad.Tensor],
                   stop_weight: float = 1.0):
    """Sentence NLL averaged within and then across sentences, plus the
    stop cross-entropy averaged over the m+1 predictor steps.

    The distributions are per-sentence lists of [1, V'] rows, or one
    [ΣT, V'] block holding every sentence's rows in order.  Lists are joined
    into such a block, whose gold-token probabilities are read with one
    gather.  They are clamped at 1e-12 before the log, so a zero-probability
    target contributes a large finite loss.  Each loss is one weighted sum:
    the sentence NLL weighs token t of sentence s by -1/(m len_s), and the
    stop loss weighs the log of 1 - p for steps 1..m and of p for the last
    step by -1/(m+1); neither adds tape records per sentence.
    Returns (sentence_loss, stop_loss, total) as [1, 1] tensors.
    """
    m = len(sentence_targets)
    if m == 0:
        raise ValueError("need at least one sentence")
    if not isinstance(sentence_dists, ad.Tensor) and len(sentence_dists) != m:
        raise ValueError(f"{len(sentence_dists)} distribution lists but {m} target lists")
    if len(stop_probs) != m + 1:
        raise ValueError(f"expected {m + 1} stop probabilities, got {len(stop_probs)}")
    if not all(sentence_targets):
        raise ValueError("empty sentence in loss computation")
    lengths = [len(targets) for targets in sentence_targets]
    if isinstance(sentence_dists, ad.Tensor):
        block = sentence_dists
        if block.data.shape[0] != sum(lengths):
            raise ValueError(f"{block.data.shape[0]} distributions for {sum(lengths)} targets")
    else:
        for dists, count in zip(sentence_dists, lengths):
            if len(dists) != count:
                raise ValueError(f"{len(dists)} distributions for {count} targets")
        block = ad.concat([dist for dists in sentence_dists for dist in dists], axis=0)
    flat_targets = [target for targets in sentence_targets for target in targets]
    gold = ad.log(ad.pick(block, range(len(flat_targets)), flat_targets), floor=1e-12)  # [ΣT, 1]
    # 1/m and -1/len_s are rounded to the working dtype before their
    # product, as averaging within and then across sentences rounds them
    dtype = ad.default_dtype()
    weights = np.repeat([dtype(1 / m) * dtype(-1 / count) for count in lengths], lengths)
    sentence_loss = ad.matmul(ad.Tensor(weights[None, :]), gold)
    # steps 1..m supervise "go on" through 1 - p, the last "stop now" through p
    sign = ad.Tensor(np.append(np.full(m, -1.0), 1.0)[:, None])
    offset = ad.Tensor(np.append(np.ones(m), 0.0)[:, None])
    chosen = ad.concat(stop_probs, axis=0) * sign + offset               # [m+1, 1]
    stop_loss = ad.matmul(ad.Tensor(np.full((1, m + 1), -dtype(1 / (m + 1)))),
                          ad.log(chosen, floor=1e-12))
    total_loss = sentence_loss + ad.mul(stop_loss, stop_weight)
    return sentence_loss, stop_loss, total_loss


def example_loss(model: GeneratorModel, example: SummarizationExample,
                 assignments: Sequence[int], schema: TopicSchema, vocab: Vocabulary,
                 mode: str = "soft", stop_weight: float = 1.0, ttg_cap: int = 400):
    """Teacher-forced losses for one example; see compute_losses."""
    grouped = group_paragraphs(example.paragraph_tokens, assignments, schema, vocab, ttg_cap)
    if grouped.total_tokens == 0:
        raise ValueError(f"example '{example.title}': every paragraph is NOISE or empty")
    encoding = encode_topics(model, grouped)
    block, targets, stops = _teacher_forced_block(model, encoding, grouped,
                                                  example.abstract_tokens, vocab, mode)
    return compute_losses(block, targets, stops, stop_weight)


def train_generator(model: GeneratorModel, train: Sequence[SummarizationExample],
                    train_assignments: Sequence[Sequence[int]],
                    valid: Sequence[SummarizationExample],
                    valid_assignments: Sequence[Sequence[int]],
                    schema: TopicSchema, vocab: Vocabulary, epochs: int = 10,
                    lr_first: float = 1e-4, lr_rest: float = 1e-5,
                    mode: str = "soft", stop_weight: float = 1.0,
                    ttg_cap: int = 400, seed: int = 42) -> list[dict]:
    """Teacher-forced Adam training (`autodiff.fit`) with the two-phase
    learning rate (lr_first for epoch 1, lr_rest afterwards); keeps the
    best-validation checkpoint, or the lowest-loss one without a validation
    set.  Returns one history row per epoch: epoch, lr, train_loss,
    train_nll, valid_loss, wall_seconds (losses are mean per-example totals;
    train_nll carries the mean sentence NLL for convergence tracking)."""
    if len(train) != len(train_assignments):
        raise ValueError(f"{len(train)} examples but {len(train_assignments)} assignment lists")
    if len(valid) != len(valid_assignments):
        raise ValueError(f"{len(valid)} validation examples but {len(valid_assignments)} assignment lists")
    if not train:
        raise ValueError("empty training set")
    if mode == "hard":
        raise ValueError("topic_mode 'hard' cannot train the generator: the argmax topic choice "
                         "gives topic_W and topic_b no gradient; train with 'soft'")

    def losses(index: int) -> dict[str, ad.Tensor]:
        nll, _, total = example_loss(model, train[index], train_assignments[index], schema,
                                     vocab, mode, stop_weight, ttg_cap)
        return {"loss": total, "nll": nll}

    def validate():
        if not valid:
            return {"valid_loss": float("nan")}, None
        loss = float(np.mean([
            example_loss(model, example, assignment, schema, vocab, mode, stop_weight,
                         ttg_cap)[2].item()
            for example, assignment in zip(valid, valid_assignments)]))
        return {"valid_loss": loss}, -loss

    return ad.fit(model.parameters(), len(train), losses, validate,
                  label=lambda index: f"example '{train[index].title}'", epochs=epochs,
                  lr=lambda epoch: lr_first if epoch == 1 else lr_rest, seed=seed)


# ---------------------------------------------------------------------------
# embedding initialization

def init_embeddings(vocab: Vocabulary, dim: int = 300, pretrained_path=None,
                    corpus: Sequence[Sequence[str]] | None = None,
                    seed: int = 0) -> np.ndarray:
    """Embedding table for the vocabulary.

    Without a pretrained file: uniform(-0.1, 0.1).  With one ("word v1 ..
    vdim" per line): in-file words take their vectors; any other word takes
    the mean vector of up to 10 in-file tokens around its first corpus
    occurrence (5 each side); words without context keep the uniform row.
    """
    rng = np.random.default_rng(seed)
    table = rng.uniform(-0.1, 0.1, size=(len(vocab), dim)).astype(np.float32)
    if pretrained_path is None:
        return table
    pretrained: dict[str, np.ndarray] = {}
    with open(pretrained_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{pretrained_path}:{lineno}: expected a word and {dim} "
                                 f"values, got {len(parts)} fields")
            try:
                vector = np.array([float(x) for x in parts[1:]], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"{pretrained_path}:{lineno}: non-numeric value ({exc})") from exc
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{pretrained_path}:{lineno}: non-finite value in the vector "
                                 f"for '{parts[0]}'")
            pretrained[parts[0]] = vector
    unresolved: set[str] = set()
    for token_id in range(len(vocab)):
        token = vocab.id_to_token(token_id)
        vector = pretrained.get(token)
        if vector is not None:
            table[token_id] = vector
        else:
            unresolved.add(token)
    if corpus is None or not unresolved:
        return table
    first_context: dict[str, np.ndarray] = {}
    for sequence in corpus:
        if not unresolved:
            break
        for position, token in enumerate(sequence):
            if token in unresolved and token not in first_context:
                window = list(sequence[max(0, position - 5):position])
                window += list(sequence[position + 1:position + 6])
                vectors = [pretrained[w] for w in window if w in pretrained]
                if vectors:
                    first_context[token] = np.mean(vectors, axis=0)
                unresolved.discard(token)
    for token, vector in first_context.items():
        table[vocab.token_to_id(token)] = vector
    return table

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
sequences of known inputs, stored one after another, run as one record:
all topic groups in both encoder directions as one `ad.bigru_sequence`,
and in teacher forcing all gold sentences as one `GRUCell.sequence`, from
the decoder inits that the predictor computes first.  Attention, over
keys computed once per example, the output projection, the copy gate and
the NLL then run once over the example's [ΣT, H] block: every sentence's
states, one row per gold token, in sentence order.

The output layer, vocabulary logits and copy gate p_gen, is written once,
in `_output_layer`, and its three readers take its outputs.  Training's
NLL reads each row's gold probability in one `ad.gold_log_probs` record,
building no [ΣT, V'] mixture; `token_distribution` builds it, as the
reference of `teacher_forced_outputs` and `compute_losses`; beam search
builds the same mixture's log from plain arrays in `beam_candidates` and
keeps each row's best few.

The predictor never reads decoded tokens, so generation runs it first and
then beam-searches all sentences in lockstep: every live hypothesis of every
unfinished sentence is one row of an [R, H] block, and each search step runs
the embedding lookup, the decoder GRU step, attention and the output layer
once over that block, tape-free.  Each sentence keeps its own beam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .config import DecodeConfig
from .corpus import SummarizationExample, TopicSchema
from .fileio import read_lines
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

    @cached_property
    def extended_ids(self) -> np.ndarray:
        """Every kept input token's extended id, in token-state order."""
        return np.array([ext for group in self.groups for ext in group.extended_ids], np.int64)

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
    """GRU cell over [B, hidden] blocks of row states; its update is written
    once, in the fused `ad.gru_sequence`, which takes the nine weights in
    the order `parameters()` lists them, kept as the tuple `weights`."""

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
        self.weights = tuple(self.parameters().values())

    def step(self, x: ad.Tensor, h: ad.Tensor) -> ad.Tensor:
        """The [B, H] states after one step of B independent sequences, from
        states h [B, H] on inputs x [B, input]: a one-step `ad.gru_sequence`."""
        return self.sequence(x, h, lengths=[1] * h.data.shape[0])

    def sequence(self, xs: ad.Tensor, h0: ad.Tensor, lengths: Sequence[int]) -> ad.Tensor:
        """States after each row of xs, which holds B sequences one after
        another, of `lengths` in any order, each run from its own row of
        h0 [B, H]: `ad.gru_sequence`.  The states come back in the inputs'
        layout."""
        return ad.gru_sequence(xs, h0, self.weights, lengths)

    parameters = ad.parameters_of


class GeneratorModel:
    """All trainable tensors of the abstract generator, every weight drawn
    from `seed` (uniform in [-0.1, 0.1], the embedding table first; biases
    zero).  `init_embeddings` then writes pretrained vectors over its rows.
    Weights past one draw chunk are drawn when first read (`ad.parameter`),
    so a model that `checkpoint.load_into` fills draws none of them."""

    def __init__(self, vocab_size: int, n_topics: int, embed_dim: int = 300,
                 hidden_dim: int = 512, seed: int = 0):
        if n_topics < 1:
            raise ValueError(f"need at least one topic, got {n_topics}")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.n_topics = n_topics
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.embed = ad.parameter(rng, (vocab_size, embed_dim))
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

    parameters = ad.parameters_of


# ---------------------------------------------------------------------------
# encoding

@dataclass
class TopicEncoding:
    """BiGRU view of the grouped input: one vector per topic, one state per
    kept input token (at least one), and the attention keys every decoder
    step reads of them."""

    topic_vectors: ad.Tensor          # [n_topics, hidden]
    token_states: ad.Tensor           # [n kept input tokens, hidden]
    attention_keys: ad.Tensor         # token_states @ attn_token_W


def bigru_states(model: GeneratorModel, token_ids: Sequence[int], lengths: Sequence[int]):
    """Forward and backward GRU states of token sequences.

    `token_ids` holds the sequences one after another and `lengths` their
    lengths.  Both directions are one `ad.bigru_sequence` over all of them;
    the backward run starts each sequence at its own last token.  Returns
    (states [n, 2H], forward then backward columns, in input order; finals
    [B, 2H], each sequence's last forward and first backward state).
    Backward row t of a sequence has consumed its tokens from the last down
    to t.
    """
    vectors = ad.embedding_lookup(model.embed, token_ids)
    start = ad.zeros((len(lengths), model.hidden_dim))
    states = ad.bigru_sequence(vectors, start, model.enc_fwd.weights, model.enc_bwd.weights,
                               lengths)
    ends = np.cumsum(lengths)
    # row of each final's columns: the last token forward, the first backward
    final_rows = np.repeat(np.stack([ends - 1, ends - lengths], axis=1), model.hidden_dim, axis=1)
    columns = np.broadcast_to(np.arange(2 * model.hidden_dim), final_rows.shape)
    return states, ad.pick(states, final_rows, columns)


def encode_topics(model: GeneratorModel, grouped: TopicGroups) -> TopicEncoding:
    """Encode all non-empty groups in one BiGRU run; empty groups get a zero
    topic vector.  Raises ValueError when every group is empty: there is
    nothing to attend over."""
    if len(grouped.groups) != model.n_topics:
        raise ValueError(f"{len(grouped.groups)} groups for a {model.n_topics}-topic model")
    kept = [group for group in grouped.groups if len(group)]
    if not kept:
        raise ValueError("no usable input: every paragraph was assigned to NOISE or empty")
    states, finals = bigru_states(
        model, [i for group in kept for i in group.token_ids], [len(group) for group in kept])
    token_states = ad.affine(states, model.enc_token_W, model.enc_token_b)           # [n, H]
    topic_vectors = ad.affine(finals, model.enc_topic_W, model.enc_topic_b)          # [G', H]
    n_empty = model.n_topics - len(kept)
    if n_empty:
        # the kept groups' rows, then one zero row per empty group, put
        # back in group order by one [n_topics, H] block of whole rows
        stacked = ad.concat([topic_vectors, ad.zeros((n_empty, model.hidden_dim))], axis=0)
        order = np.argsort(np.argsort([len(group) == 0 for group in grouped.groups],
                                      kind="stable"))
        topic_vectors = ad.pick(stacked, *np.meshgrid(order, np.arange(model.hidden_dim),
                                                      indexing="ij"))
    return TopicEncoding(topic_vectors=topic_vectors, token_states=token_states,
                         attention_keys=attention_keys(model, token_states))


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
        context = ad.rows(topic_vectors, best, best + 1)
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
                   token_states: ad.Tensor, keys: ad.Tensor):
    """Additive attention of each of R decoder states [R, H] over all n
    token states.

    `keys` are `attention_keys(model, token_states)`.  The states' query
    terms are one affine over the block; the scores are one
    `ad.additive_scores` record, normalized over the n positions.  Returns
    (weights [n, R], one column per state, contexts [R, H]).
    """
    if token_states.data.shape[0] == 0:
        raise ValueError("attention requires at least one encoded input token")
    queries = ad.affine(state, model.attn_state_W, model.attn_b)
    weights = ad.softmax(ad.additive_scores(keys, queries, model.attn_v), axis=0)
    context = ad.matmul(ad.transpose(weights), token_states)     # [R, H]
    return weights, context


def _output_layer(model: GeneratorModel, state: ad.Tensor, context: ad.Tensor,
                  dec_input: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """The vocabulary logits [T, V] and copy gate p_gen [T, 1] of T decoder
    steps, from state and context [T, H] and dec_input [T, E]."""
    features = ad.concat([state, context], axis=1)               # [T, 2H]
    logits = ad.affine(ad.affine(features, model.out_hidden_W, model.out_hidden_b),
                       model.out_vocab_W, model.out_vocab_b)     # [T, V]
    p_gen = ad.sigmoid(ad.matmul(context, model.gate_context_W)
                       + ad.matmul(state, model.gate_state_W)
                       + ad.matmul(dec_input, model.gate_input_W)
                       + model.gate_b)                           # [T, 1]
    return logits, p_gen


def token_distribution(model: GeneratorModel, state: ad.Tensor, context: ad.Tensor,
                       dec_input: ad.Tensor, weights: ad.Tensor,
                       grouped: TopicGroups) -> ad.Tensor:
    """Mix the vocabulary softmax with the copy distribution, for T decoder
    steps at once.

    state and context are [T, H], dec_input [T, E], and weights [n, T] (one
    attention column per step).  Output is [T, vocab + n_oov]; the copy mass
    lands on the extended id of every attended input position, so OOV input
    tokens stay reachable.

    This is the full-distribution reference.  Training never builds the
    [T, V'] block: `example_loss` reads each row's gold entry with
    `ad.gold_log_probs`.  Beam search builds it from plain arrays, off the
    tape, in `beam_candidates`.  Both are bitwise this block's values.
    """
    if weights.data.shape[0] != grouped.extended_ids.size:
        raise ValueError(f"{weights.data.shape[0]} attention weights for "
                         f"{grouped.extended_ids.size} input positions")
    logits, p_gen = _output_layer(model, state, context, dec_input)
    vocab_probs = ad.softmax(logits, axis=1)
    copy_probs = ad.scatter_sum(ad.transpose(weights), grouped.extended_ids, grouped.extended_size)
    n_oov = grouped.extended_size - grouped.vocab_size
    if n_oov:
        vocab_probs = ad.concat([vocab_probs, ad.zeros((state.data.shape[0], n_oov))], axis=1)
    return vocab_probs * p_gen + copy_probs * (1.0 - p_gen)


_SORT_MAX = 1 << 10   # most R x V whose candidates `beam_candidates` sorts
_BEAM_SPLIT_MIN = 1 << 18   # least R x V whose candidates `beam_candidates` takes on two threads


def beam_candidates(logits: np.ndarray, p_gen: np.ndarray, weights: np.ndarray,
                    input_ids: np.ndarray, inverse: np.ndarray,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` best extended ids of every row of a beam step, with their
    log-probabilities.

    The arguments are `_output_layer`'s values, logits [R, V] and p_gen
    [R, 1], the attention weights [n, R], and the input's distinct extended
    ids, sorted, with each input position's index in them:
    `np.unique(extended_ids, return_inverse=True)`.  The ids may skip OOV
    ids; a skipped id scores as any word without mass, at the clamp.
    `logits` is overwritten.  Returns (ids, scores), both [R, min(count,
    V')], V' = max(V, the last input id + 1), each row by score descending
    and lower id first on ties: bitwise what the [R, V'] mixture p_gen ·
    softmax + (1 - p_gen) · copy of `token_distribution`, a log clamped at
    `ad.LOG_FLOOR` and a stable descending sort keep.  Runs on arrays and
    records nothing on a tape.

    It builds that block of logs (`_log_mixture`).  Up to `_SORT_MAX`
    R x V it sorts it; above, each of `count` passes of `argmax`, which
    returns the lowest id among equal maxima, takes every row's next entry
    of that sort and masks it to -inf: the sort's V' log V' per row soon
    costs more than the passes (the measured limit, `BENCH_onebeam.json`).
    From `_BEAM_SPLIT_MIN` R x V on, the first half of the rows runs here
    and the second on the worker (`ad.by_halves`), each half building its
    own block, with BLAS at one thread while they run (`ad.on_two_threads`).
    """
    if logits.size <= _SORT_MAX:
        scores = _log_mixture(logits, p_gen, weights, input_ids, inverse)
        ids = np.argsort(-scores, axis=1, kind="stable")[:, :count]
        return ids, np.take_along_axis(scores, ids, axis=1)

    def top(part: range, side: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(part.start, part.stop)
        scores = _log_mixture(logits[rows], p_gen[rows], weights[:, rows], input_ids, inverse)
        ids = np.empty((len(part), min(count, scores.shape[1])), np.int64)
        best = np.empty(ids.shape, scores.dtype)
        flat, offsets = scores.reshape(-1), np.arange(len(part)) * scores.shape[1]
        for j in range(ids.shape[1]):
            ids[:, j] = scores.argmax(axis=1)
            at = ids[:, j] + offsets
            best[:, j] = flat[at]
            flat[at] = -np.inf
        return ids, best

    halves = ad.by_halves(top, range(logits.shape[0]), lambda row: 1, logits.size,
                          _BEAM_SPLIT_MIN)
    if len(halves) == 1:
        return halves[0]
    return tuple(np.concatenate(parts) for parts in zip(*halves))


def _log_mixture(logits: np.ndarray, p_gen: np.ndarray, weights: np.ndarray,
                 input_ids: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """`beam_candidates`' fresh [r, V'] block, overwriting `logits` with
    its exps: the softmax times p_gen, plus each input id's copy mass,
    added in position order as `ad.scatter_sum` adds it, times 1 - p_gen
    (a zero copy term leaves a word's value as it is, so only the input
    ids' columns take one), then the log clamped at `ad.LOG_FLOOR`."""
    ex = logits
    ex -= ex.max(axis=1, keepdims=True)
    np.exp(ex, out=ex)
    mixture = np.zeros((ex.shape[0], max(ex.shape[1], int(input_ids[-1]) + 1)), ex.dtype)
    np.divide(ex, ex.sum(axis=1, keepdims=True), out=mixture[:, :ex.shape[1]])
    mixture *= p_gen
    copy = np.zeros((input_ids.size, ex.shape[0]), ex.dtype)
    np.add.at(copy, inverse, weights)
    mixture[:, input_ids] += copy.T * (1.0 - p_gen)
    return np.log(np.maximum(mixture, ad.LOG_FLOOR, out=mixture), out=mixture)


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

    Each step keeps only what a hypothesis can use: from the tape-free
    `_output_layer`, `beam_candidates` gives every row its `beam_size + 1`
    best tokens and their log-probabilities."""
    if not decoder_inits:
        return []
    beam = config.beam_size
    input_ids, inverse = np.unique(grouped.extended_ids, return_inverse=True)
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
        logits, p_gen = _output_layer(model, block, context, x)
        best, log_probs = (part.tolist() for part in beam_candidates(
            logits.data, p_gen.data, weights.data, input_ids, inverse, beam + 1))
        states, parents, prev_ids, row = block.data, [], [], 0
        for sentence, hyps in enumerate(live):
            # (-score, token id, arrival, hypothesis, row): sorted as tuples,
            # higher score first, lower token id on ties, then arrival order
            candidates: list[tuple[float, int, int, _Hypothesis, int]] = []
            for hyp in hyps:
                for token_id, log_prob in zip(best[row], log_probs[row]):
                    candidates.append((-(hyp.log_prob + log_prob), token_id, len(candidates),
                                       hyp, row))
                row += 1
            candidates.sort()
            next_live: list[_Hypothesis] = []
            for negated, token_id, _, hyp, parent in candidates[:beam]:
                score = -negated
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
    decoded, targets, stops = _teacher_forced_steps(model, encoding, grouped,
                                                    gold_sentences, vocab, mode)
    block = token_distribution(model, *decoded, grouped)
    ends = np.cumsum([len(sentence) for sentence in targets])
    rows = [[ad.rows(block, t, t + 1) for t in range(end - len(sentence), end)]
            for sentence, end in zip(targets, ends)]
    return rows, targets, stops


def _teacher_forced_steps(model: GeneratorModel, encoding: TopicEncoding,
                          grouped: TopicGroups, gold_sentences: Sequence[Sequence[str]],
                          vocab: Vocabulary, mode: str):
    """Teacher forcing up to the output layer, every decoder step one row
    of an [ΣT, ·] block, sentence after sentence.  The predictor never
    reads decoded tokens, so its steps run first; the decoder GRU then runs
    every sentence's T gold inputs in one `GRUCell.sequence`, each sentence
    from its own decoder init, and attention runs once over the example's
    rows.  Returns ((states, contexts, inputs, weights), the arguments
    `token_distribution` takes after the model, per-sentence targets, stop
    probabilities)."""
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
    return (states, contexts, inputs, weights), targets, [step.stop_prob for step in steps]


def compute_losses(sentence_dists: Sequence[Sequence[ad.Tensor]],
                   sentence_targets: Sequence[Sequence[int]],
                   stop_probs: Sequence[ad.Tensor],
                   stop_weight: float = 1.0):
    """Sentence NLL averaged within and then across sentences, plus the
    stop cross-entropy averaged over the m+1 predictor steps, from the
    per-sentence lists of [1, V'] rows that `teacher_forced_outputs` returns.

    The rows are joined into one [ΣT, V'] block, whose gold-token
    probabilities are read with one gather and clamped at `ad.LOG_FLOOR`
    before the log, so a zero-probability target costs a large finite loss.
    The losses are `_weighted_losses` of the gold log-probabilities.
    Returns (sentence_loss, stop_loss, total) as [1, 1] tensors.
    """
    m = len(sentence_targets)
    if m == 0:
        raise ValueError("need at least one sentence")
    if len(stop_probs) != m + 1:
        raise ValueError(f"expected {m + 1} stop probabilities, got {len(stop_probs)}")
    if not all(sentence_targets):
        raise ValueError("empty sentence in loss computation")
    lengths = [len(targets) for targets in sentence_targets]
    counts = [len(dists) for dists in sentence_dists]
    if counts != lengths:
        raise ValueError(f"{counts} distributions per sentence for {lengths} targets")
    block = ad.concat([dist for dists in sentence_dists for dist in dists], axis=0)
    flat_targets = [target for targets in sentence_targets for target in targets]
    gold = ad.log(ad.pick(block, range(len(flat_targets)), flat_targets), floor=ad.LOG_FLOOR)
    return _weighted_losses(gold, lengths, stop_probs, stop_weight)


def _weighted_losses(gold: ad.Tensor, lengths: Sequence[int], stop_probs: Sequence[ad.Tensor],
                     stop_weight: float):
    """(sentence_loss, stop_loss, total) from the [ΣT, 1] gold
    log-probabilities of m sentences of `lengths` and m+1 stop
    probabilities.  Each loss is one weighted sum: the sentence NLL weighs
    token t of sentence s by -1/(m len_s), and the stop loss weighs the log
    of 1 - p for steps 1..m and of p for the last step by -1/(m+1); neither
    adds per-sentence records."""
    m = len(lengths)
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
                          ad.log(chosen, floor=ad.LOG_FLOOR))
    total_loss = sentence_loss + ad.mul(stop_loss, stop_weight)
    return sentence_loss, stop_loss, total_loss


def example_loss(model: GeneratorModel, example: SummarizationExample,
                 assignments: Sequence[int], schema: TopicSchema, vocab: Vocabulary,
                 *, stop_weight: float = 1.0, ttg_cap: int = 400):
    """Teacher-forced losses for one example on the soft topic mixture (hard
    mode's argmax gives topic_W no gradient), as `teacher_forced_outputs` and
    `compute_losses` give them, bitwise: the output layer stops at the
    logits and p_gen, and `ad.gold_log_probs` reads each row's gold
    log-probability without the [ΣT, V'] mixture."""
    grouped = group_paragraphs(example.paragraph_tokens, assignments, schema, vocab, ttg_cap)
    try:
        encoding = encode_topics(model, grouped)
    except ValueError as exc:
        raise ValueError(f"example '{example.title}': {exc}") from None
    (states, contexts, inputs, weights), targets, stops = _teacher_forced_steps(
        model, encoding, grouped, example.abstract_tokens, vocab, "soft")
    logits, p_gen = _output_layer(model, states, contexts, inputs)
    gold = ad.gold_log_probs(logits, p_gen, weights, grouped.extended_ids,
                             [target for sentence in targets for target in sentence])
    return _weighted_losses(gold, [len(sentence) for sentence in targets], stops, stop_weight)


def train_generator(model: GeneratorModel, train: Sequence[SummarizationExample],
                    train_assignments: Sequence[Sequence[int]],
                    valid: Sequence[SummarizationExample],
                    valid_assignments: Sequence[Sequence[int]],
                    schema: TopicSchema, vocab: Vocabulary, epochs: int = 10,
                    lr_first: float = 1e-4, lr_rest: float = 1e-5,
                    stop_weight: float = 1.0, ttg_cap: int = 400, seed: int = 42) -> list[dict]:
    """Teacher-forced Adam training of `example_loss` (`autodiff.fit`, which
    refuses an empty training set) with the two-phase learning rate
    (lr_first for epoch 1, lr_rest afterwards); keeps the best-validation
    checkpoint, or the lowest-loss one without a validation set.  Returns
    `fit`'s history rows: epoch, lr, train_loss, train_nll, train_stop
    (per-example means of the total, the sentence NLL and the stop loss),
    grad_norm, valid_loss and wall_seconds."""
    if len(train) != len(train_assignments):
        raise ValueError(f"{len(train)} examples but {len(train_assignments)} assignment lists")
    if len(valid) != len(valid_assignments):
        raise ValueError(f"{len(valid)} validation examples but {len(valid_assignments)} assignment lists")

    def losses(index: int) -> dict[str, ad.Tensor]:
        nll, stop, total = example_loss(model, train[index], train_assignments[index], schema,
                                        vocab, stop_weight=stop_weight, ttg_cap=ttg_cap)
        return {"loss": total, "nll": nll, "stop": stop}

    def validate():
        if not valid:
            return {"valid_loss": float("nan")}, None
        loss = float(np.mean([
            example_loss(model, example, assignment, schema, vocab, stop_weight=stop_weight,
                         ttg_cap=ttg_cap)[2].item()
            for example, assignment in zip(valid, valid_assignments)]))
        return {"valid_loss": loss}, -loss

    return ad.fit(model.parameters(), len(train), losses, validate,
                  label=lambda index: f"example '{train[index].title}'", epochs=epochs,
                  lr=lambda epoch: lr_first if epoch == 1 else lr_rest, seed=seed)


# ---------------------------------------------------------------------------
# pretrained embeddings

def init_embeddings(table: np.ndarray, vocab: Vocabulary, path,
                    corpus: Sequence[Sequence[str]]) -> None:
    """Write pretrained vectors over rows of the [len(vocab), dim] `table`,
    in place (a model's `embed.data`).

    The file holds "word v1 .. vdim" per line, dim = `table.shape[1]`.
    In-file words take their vectors; any other word takes the mean vector
    of up to 10 in-file tokens around its first `corpus` occurrence (5 each
    side); every other row keeps its value.  `corpus` is a list of token
    sequences, the training paragraphs in `topicsum train`; with `[]` only
    in-file words change.  The whole file is checked before any row is
    written, so after an error the table is as it was; only the vectors a
    row can take, of vocabulary words and `corpus` tokens, are kept.
    """
    dim = table.shape[1]
    wanted = {vocab.id_to_token(token_id) for token_id in range(len(vocab))}
    wanted.update(token for sequence in corpus for token in sequence)
    pretrained: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise ValueError(f"{path}:{lineno}: expected a word and {dim} "
                             f"values, got {len(parts)} fields")
        try:
            vector = np.array([float(x) for x in parts[1:]], dtype=np.float32)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"{path}:{lineno}: non-finite value in the vector for '{parts[0]}'")
        if parts[0] in wanted:
            pretrained[parts[0]] = vector
    unresolved: set[str] = set()
    for token_id in range(len(vocab)):
        token = vocab.id_to_token(token_id)
        if token in pretrained:
            table[token_id] = pretrained[token]
        else:
            unresolved.add(token)
    for sequence in corpus:
        if not unresolved:
            break
        for position, token in enumerate(sequence):
            if token in unresolved:
                window = list(sequence[max(0, position - 5):position])
                window += list(sequence[position + 1:position + 6])
                vectors = [pretrained[w] for w in window if w in pretrained]
                if vectors:
                    table[vocab.token_to_id(token)] = np.mean(vectors, axis=0)
                unresolved.discard(token)

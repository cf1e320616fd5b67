"""Golden generation: abstracts from a committed checkpoint never move.

`tests/data/golden_generator.ckpt` is a small generator (E=16, H=32)
trained on the toy corpus; `tests/data/golden_abstracts.json` holds its
abstracts for every toy example in soft and hard topic mode at beam 1 and
3, captured with the per-step decoder.  Any change to the arithmetic of
generation that flips a single token shows here.  See
`tests/data/make_golden_generator.py` for how both files were written.
"""

import json
from pathlib import Path

import pytest

from topicsum.checkpoint import load_into
from topicsum.generator import DecodeConfig, GeneratorModel, generate_abstract
from topicsum.synthetic import toy_summarization_corpus

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "golden_abstracts.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_setup():
    corpus = toy_summarization_corpus(20, seed=0)
    model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                           embed_dim=16, hidden_dim=32, seed=123)
    load_into(model.parameters(), DATA / "golden_generator.ckpt")
    return corpus, model


@pytest.mark.parametrize("mode,beam", [("soft", 1), ("soft", 3), ("hard", 1), ("hard", 3)])
def test_generation_matches_golden_abstracts(golden_setup, mode, beam):
    corpus, model = golden_setup
    config = DecodeConfig(topic_mode=mode, beam_size=beam, max_sentences=6,
                          max_sentence_tokens=10)
    got = [[" ".join(sentence) for sentence in
            generate_abstract(model, ex.paragraph_tokens, assignment,
                              corpus.schema, corpus.vocab, config)]
           for ex, assignment in zip(corpus.examples, corpus.assignments)]
    want = GOLDEN[f"{mode}_beam{beam}"]
    assert "\n".join(map("|".join, got)).encode("utf-8") == \
        "\n".join(map("|".join, want)).encode("utf-8")

"""Write the golden generation fixture read by tests/test_golden.py.

Trains a small generator (E=16, H=32) on the toy corpus for a fixed number
of epochs, saves its checkpoint, and records its abstracts for every toy
example in soft and hard topic mode at beam 1 and 3.

    PYTHONPATH=src python tests/data/make_golden_generator.py

The committed files were written by the per-step teacher-forcing code
(before the fused GRU sequences).  Training reorders float32 sums, so a
rerun with later code can train a slightly different checkpoint; the golden
test checks generation from the committed checkpoint, which must not move.
"""

import json
from pathlib import Path

from topicsum.checkpoint import save_tensors
from topicsum.generator import DecodeConfig, GeneratorModel, generate_abstract, train_generator
from topicsum.synthetic import toy_summarization_corpus

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "golden_generator.ckpt"
ABSTRACTS = HERE / "golden_abstracts.json"
EMBED_DIM, HIDDEN_DIM = 16, 32
MODES = ("soft", "hard")
BEAMS = (1, 3)


def decode_config(mode: str, beam: int) -> DecodeConfig:
    return DecodeConfig(topic_mode=mode, beam_size=beam, max_sentences=6,
                        max_sentence_tokens=10)


def main() -> None:
    corpus = toy_summarization_corpus(20, seed=0)
    model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                           embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM, seed=0)
    history = train_generator(model, corpus.examples, corpus.assignments, [], [],
                              corpus.schema, corpus.vocab, epochs=80,
                              lr_first=3e-3, lr_rest=3e-3, seed=0)
    print("final train NLL", history[-1]["train_nll"])
    save_tensors(CHECKPOINT, model.parameters())
    abstracts = {}
    for mode in MODES:
        for beam in BEAMS:
            config = decode_config(mode, beam)
            abstracts[f"{mode}_beam{beam}"] = [
                [" ".join(sentence) for sentence in
                 generate_abstract(model, ex.paragraph_tokens, assignment,
                                   corpus.schema, corpus.vocab, config)]
                for ex, assignment in zip(corpus.examples, corpus.assignments)]
    ABSTRACTS.write_text(json.dumps(abstracts, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""The benchmark's output checks still judge good and corrupted outputs right.

Runs `perfbench/selftest.py` (about a second on tiny models) so that a change
to the program that breaks a benchmark check shows up in the test suite; the
benchmark itself stays out of it.  The traced runs' `Tracer` wraps program
functions by name, so one toy abstract also runs under it here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from topicsum import autodiff, generator
from topicsum.synthetic import toy_summarization_corpus

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


def load_tracing():
    """`perfbench/tracing.py` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_program_and_restores_it():
    owners = (generator, generator.GRUCell, autodiff)
    originals = [dict(vars(owner)) for owner in owners]
    tracer = load_tracing().Tracer()
    tracer.install(generator, autodiff)
    try:
        corpus = toy_summarization_corpus(2, seed=0)
        model = generator.GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                                         embed_dim=8, hidden_dim=8, seed=0)
        example = corpus.examples[0]
        generator.generate_abstract(model, example.paragraph_tokens, corpus.assignments[0],
                                    corpus.schema, corpus.vocab,
                                    generator.DecodeConfig(beam_size=2, max_sentences=2,
                                                           max_sentence_tokens=4))
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert {"GRUCell.step", "encode_topics", "attention_step"} <= recorded, recorded
    for owner, attributes in zip(owners, originals):
        for name, value in attributes.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name}"

"""Command-line pipeline: build-corpus, train, generate, evaluate.

Exit codes: 0 success, 2 usage or validation errors, 1 unexpected runtime
failures.  Every command is deterministic given its seed (generation and
evaluation consume no randomness).  The flags of `train` and `generate` name
files and the stage; every setting comes from `--config`, which heads a log.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .autodiff import EmptyTrainingSet
from .config import MAX_MODEL_SIZE, RunConfig, format_config, load_config
from .corpus import (TopicSchema, abstract_sentences, article_token_sequences,
                     build_detector_dataset, label_frequency_stats, load_articles,
                     load_detector_dataset, load_summarization_dataset,
                     load_topic_schema, write_detector_dataset, write_label_stats)
from .detector import (DetectorModel, MeanEmbeddingEncoder, detect_topics,
                       train_detector)
from .fileio import atomic_write, read_lines
from .generator import (GeneratorModel, generate_abstract, init_embeddings,
                        train_generator)
from .rouge import dedup_sentences, evaluate_corpus, write_eval_report
from .text import Vocabulary

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicsum",
        description="Topic-guided multi-document abstract generation.")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build-corpus", help="tokenize articles, build vocab, stats, and detector splits")
    build.add_argument("--articles", required=True, help="JSON Lines article dump")
    build.add_argument("--schema", required=True, help="topic-allocation file")
    build.add_argument("--out", required=True, help="output directory")
    build.add_argument("--seed", type=int, default=42)
    build.add_argument("--n-t", type=int, default=20, dest="n_t",
                       help="label-frequency tier for schema filtering")
    build.add_argument("--vocab-cap", type=int, default=50000)
    build.add_argument("--summarization", default=None,
                       help="optional summarization dataset to validate and fold into the vocabulary")
    build.set_defaults(func=cmd_build_corpus)

    train = commands.add_parser("train", help="train the detector or the generator")
    train.add_argument("--stage", required=True, choices=("detector", "generator"))
    train.add_argument("--config", required=True, help="key = value run configuration")
    train.add_argument("--out", required=True, help="checkpoint output path")
    train.add_argument("--log", default=None, help="training log path (default: <out>.log)")
    train.set_defaults(func=cmd_train)

    generate = commands.add_parser("generate", help="generate abstracts for input articles")
    generate.add_argument("--config", required=True, help="its detector_checkpoint assigns topics")
    generate.add_argument("--generator-ckpt", required=True)
    generate.add_argument("--input", required=True, help="summarization-format records")
    generate.add_argument("--out", required=True, help="one abstract per line")
    generate.set_defaults(func=cmd_generate)

    evaluate = commands.add_parser("evaluate", help="score generated abstracts against gold")
    evaluate.add_argument("--generated", required=True, help="one abstract per line")
    evaluate.add_argument("--gold", required=True, help="one gold abstract per line")
    evaluate.add_argument("--out", required=True, help="report path")
    evaluate.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# build-corpus

def cmd_build_corpus(args) -> int:
    """Every input is read and checked before the first output is written."""
    articles = load_articles(args.articles)
    schema = load_topic_schema(args.schema, n_t=args.n_t)
    stats = label_frequency_stats(articles)

    summarization = None
    if args.summarization:
        # fold the generation corpus into the shared vocabulary; which
        # records are kept does not depend on the vocabulary
        summarization = load_summarization_dataset(args.summarization, Vocabulary([]))
    # counted as tokenized, so no paragraph's token list outlives its count
    vocab = Vocabulary.build(itertools.chain(article_token_sequences(articles), *(
        (*ex.paragraph_tokens, *ex.abstract_tokens) for ex in summarization or ())),
        cap=args.vocab_cap)
    splits = build_detector_dataset(articles, schema, vocab, seed=args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.txt")
    write_label_stats(out_dir / "label_stats.tsv", stats)
    write_detector_dataset(out_dir / "detector_train.tsv", splits.train)
    write_detector_dataset(out_dir / "detector_valid.tsv", splits.valid)
    write_detector_dataset(out_dir / "detector_test.tsv", splits.test)

    print(f"articles: {len(articles)}")
    print(f"labels: {len(stats)}")
    print(f"vocabulary: {len(vocab)}")
    print(f"detector examples: train={len(splits.train)} "
          f"valid={len(splits.valid)} test={len(splits.test)}")
    if summarization is not None:
        print(f"summarization examples: {len(summarization)}")
    print(f"seed: {args.seed}")
    return 0


# ---------------------------------------------------------------------------
# train

# the config keys every training stage and generation read first
_VOCABULARY_KEYS = ("vocab_path", "schema_path")


def _refuse_missing_directories(*outputs) -> None:
    """Refuse, before any input is read, an output path whose directory does not exist."""
    for path in outputs:
        if not Path(path).parent.is_dir():
            raise ValueError(f"{path}: no such directory: {Path(path).parent}")


def _require(path, config: RunConfig, *keys: str) -> None:
    """Refuse, naming the config file at `path`, a config that leaves any of `keys` unset."""
    missing = [key for key in keys if not getattr(config, key)]
    if missing:
        raise ValueError(f"{path}: config is missing required keys: {', '.join(missing)}")


@contextlib.contextmanager
def _training_on(path):
    """Train on the dataset at `path`: an empty one is refused by `fit`, and
    the refusal names the path.  A diverging run is reported by `fit`'s
    non-finite checks, not by numpy's overflow warnings on the way there."""
    with np.errstate(all="ignore"):
        try:
            yield
        except EmptyTrainingSet as exc:
            raise ValueError(f"{path}: {exc}") from None


def _write_log(path, config: RunConfig, rows: list[dict]) -> None:
    """The config as `# ` lines, then the rows as TSV under the first row's keys."""
    with atomic_write(path) as handle:
        for line in format_config(config).splitlines():
            handle.write(f"# {line}\n")
        columns = list(rows[0])
        handle.write("\t".join(columns) + "\n")
        for row in rows:
            cells = [f"{row[key]:.6g}" if isinstance(row[key], float) else str(row[key])
                     for key in columns]
            handle.write("\t".join(cells) + "\n")


def _build_detector_model(seed: int, n_classes: int, *sizes: int) -> DetectorModel:
    rng = np.random.default_rng(seed)
    return DetectorModel(MeanEmbeddingEncoder(*sizes, rng), n_classes, rng)


def _trained_sizes(ckpt, config: RunConfig, vocab: Vocabulary, schema: TopicSchema,
                   embed: str, head: str, noise: int = 0) -> tuple[int, int]:
    """(E, H) of the model in the archive at `ckpt`, from the headers of its
    tensors `embed` [V, E] and `head` [H, topics + `noise`].  A vocabulary or
    schema of another count is refused naming its file.  A tensor missing, not
    2-D or of a width no config allows gives width 1, which `load_into` refuses."""
    shapes = checkpoint.tensor_shapes(ckpt)
    (n_tokens, embed_dim), (hidden_dim, n_classes) = (
        found if len(found) == 2 and 0 < found[axis] <= MAX_MODEL_SIZE else placeholder
        for found, axis, placeholder in (
            (shapes.get(embed, ()), 1, (len(vocab), 1)),
            (shapes.get(head, ()), 0, (1, len(schema.topics) + noise))))
    for path, count, trained, noun in (
            (config.vocab_path, len(vocab), n_tokens, "tokens"),
            (config.schema_path, len(schema.topics), n_classes - noise, "topics")):
        if count != trained:
            raise ValueError(f"{path}: {count} {noun}, but {ckpt} was trained with {trained}")
    return embed_dim, hidden_dim


def _detected_topics(config: RunConfig, vocab: Vocabulary, schema: TopicSchema, *datasets) -> list:
    """Per-example topic assignments of each dataset by the config's `detector_checkpoint`,
    the one detector that both trains a generator's topics and generates with them."""
    sizes = _trained_sizes(config.detector_checkpoint, config, vocab, schema,
                           "encoder.embed", "cls_W", noise=1)
    detector = _build_detector_model(config.seed, schema.n_classes, len(vocab), *sizes)
    checkpoint.load_into(detector.parameters(), config.detector_checkpoint)
    return [[detect_topics(ex.paragraph_ids, detector) for ex in data] for data in datasets]


def cmd_train(args) -> int:
    """Train one stage, then write its checkpoint and log.

    With `embeddings_path`, pretrained vectors overwrite rows of the
    generator's seed-drawn embedding table before training
    (`init_embeddings`); a bad vectors file stops the run with nothing written."""
    log_path = args.log or f"{args.out}.log"
    _refuse_missing_directories(args.out, log_path)
    stage_keys = (("detector_train_path", "detector_valid_path") if args.stage == "detector" else
                  ("summarization_train_path", "summarization_valid_path", "detector_checkpoint"))
    vectors = () if args.stage == "detector" else ("embeddings_path",)
    config = load_config(args.config, reads=(*_VOCABULARY_KEYS, *stage_keys, *vectors))
    _require(args.config, config, *_VOCABULARY_KEYS)
    _require(args.config, config, *stage_keys)
    vocab = Vocabulary.load(config.vocab_path)
    schema = load_topic_schema(config.schema_path)

    if args.stage == "detector":
        train, valid = (load_detector_dataset(path, schema.n_classes, len(vocab),
                                              config.vocab_path)
                        for path in (config.detector_train_path, config.detector_valid_path))
        model = _build_detector_model(config.seed, schema.n_classes, len(vocab),
                                      config.detector_embed_size, config.detector_hidden_size)
        with _training_on(config.detector_train_path):
            history = train_detector(model, train, valid, epochs=config.detector_epochs,
                                     lr=config.detector_lr, seed=config.seed)
        summary = (f"detector: {len(train)} train / {len(valid)} valid examples, "
                   f"{config.detector_epochs} epochs\n"
                   f"final valid accuracy: {history[-1]['valid_accuracy']:.4f}")
    else:
        train = load_summarization_dataset(config.summarization_train_path, vocab)
        valid = load_summarization_dataset(config.summarization_valid_path, vocab)
        train_topics, valid_topics = _detected_topics(config, vocab, schema, train, valid)
        model = GeneratorModel(len(vocab), len(schema.topics), embed_dim=config.embed_size,
                               hidden_dim=config.hidden_size, seed=config.seed)
        if config.embeddings_path:
            init_embeddings(model.embed.data, vocab, config.embeddings_path,
                            [tokens for ex in train for tokens in ex.paragraph_tokens])
        with _training_on(config.summarization_train_path):
            history = train_generator(model, train, train_topics, valid, valid_topics,
                                      schema, vocab, epochs=config.generator_epochs,
                                      lr_first=config.generator_lr_first,
                                      lr_rest=config.generator_lr_rest,
                                      stop_weight=config.stop_loss_weight,
                                      ttg_cap=config.ttg_cap, seed=config.seed)
        summary = (f"generator: {len(train)} train / {len(valid)} valid examples, "
                   f"{config.generator_epochs} epochs\n"
                   f"final valid loss: {history[-1]['valid_loss']:.4f}")
    checkpoint.save_tensors(args.out, model.parameters())
    _write_log(log_path, config, history)
    print(summary)
    print(f"checkpoint: {args.out}")
    print(f"log: {log_path}")
    return 0


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    _refuse_missing_directories(args.out)
    needed = (*_VOCABULARY_KEYS, "detector_checkpoint")
    config = load_config(args.config, reads=needed)
    _require(args.config, config, *needed)
    vocab = Vocabulary.load(config.vocab_path)
    schema = load_topic_schema(config.schema_path)
    sizes = _trained_sizes(args.generator_ckpt, config, vocab, schema, "embed", "topic_W")
    model = GeneratorModel(len(vocab), len(schema.topics), *sizes, seed=config.seed)
    checkpoint.load_into(model.parameters(), args.generator_ckpt)
    examples = load_summarization_dataset(args.input, vocab, require_abstract=False)
    topics, = _detected_topics(config, vocab, schema, examples)
    written = 0
    with atomic_write(args.out) as handle:
        for example, assignments in zip(examples, topics):
            try:
                sentences = generate_abstract(model, example.paragraph_tokens,
                                              assignments, schema, vocab, config)
            except ValueError as exc:
                print(f"skipping '{example.title}': {exc}", file=sys.stderr)
                handle.write("\n")  # empty abstract marker keeps records aligned
                continue
            sentences = dedup_sentences(sentences)
            handle.write(" ".join(" ".join(s) for s in sentences) + "\n")
            written += 1
    print(f"abstracts: {written} of {len(examples)} records -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _read_abstract_lines(path) -> list[list[list[str]]]:
    return [abstract_sentences(line.rstrip("\n")) for line in read_lines(path)]


def cmd_evaluate(args) -> int:
    _refuse_missing_directories(args.out)
    generated = _read_abstract_lines(args.generated)
    gold = _read_abstract_lines(args.gold)
    if len(generated) != len(gold):
        raise ValueError(f"{args.generated} holds {len(generated)} abstracts but {args.gold} "
                         f"holds {len(gold)}; the files must align line by line")
    report = evaluate_corpus(generated, gold)
    write_eval_report(args.out, report)
    print(f"examples: {report.n_examples}")
    print(f"rouge1_f1: {report.mean_rouge_1:.4f}")
    print(f"rouge2_f1: {report.mean_rouge_2:.4f}")
    print(f"rougeL_f1: {report.mean_rouge_l:.4f}")
    print(f"report: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

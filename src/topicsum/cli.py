"""Command-line pipeline: build-corpus, train, generate, evaluate.

Exit codes: 0 success, 2 usage or validation errors, 1 unexpected runtime
failures.  Every command is deterministic given its seed (generation and
evaluation consume no randomness at all); training logs start with the
fully resolved configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import RunConfig, format_config, load_config
from .corpus import (article_token_sequences, build_detector_dataset,
                     label_frequency_stats, load_articles,
                     load_detector_dataset, load_summarization_dataset,
                     load_topic_schema, write_detector_dataset,
                     write_label_stats)
from .detector import (DetectorModel, MeanEmbeddingEncoder, detect_topics,
                       train_detector)
from .fileio import atomic_write
from .generator import (DecodeConfig, GeneratorModel, generate_abstract,
                        init_embeddings, train_generator)
from .rouge import dedup_sentences, evaluate_corpus, write_eval_report
from .text import Vocabulary, split_sentences, tokenize

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
    train.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed (default 42)")
    train.set_defaults(func=cmd_train)

    generate = commands.add_parser("generate", help="generate abstracts for input articles")
    generate.add_argument("--config", required=True)
    generate.add_argument("--detector-ckpt", required=True)
    generate.add_argument("--generator-ckpt", required=True)
    generate.add_argument("--input", required=True, help="summarization-format records")
    generate.add_argument("--out", required=True, help="one abstract per line")
    generate.add_argument("--mode", choices=("soft", "hard"), default=None,
                          help="topic mixing mode (default: config)")
    generate.add_argument("--beam", type=int, default=None,
                          help="beam size, 1 = greedy (default: config)")
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
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# build-corpus

def cmd_build_corpus(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    articles = load_articles(args.articles)
    schema = load_topic_schema(args.schema, n_t=args.n_t)
    stats = label_frequency_stats(articles)
    write_label_stats(out_dir / "label_stats.tsv", stats)

    sequences = list(article_token_sequences(articles))
    summarization = None
    if args.summarization:
        # fold the generation corpus into the shared vocabulary; which
        # records are kept does not depend on the vocabulary
        summarization = load_summarization_dataset(args.summarization, Vocabulary([]))
        for example in summarization:
            sequences.extend(example.paragraph_tokens)
            sequences.extend(example.abstract_tokens)
    vocab = Vocabulary.build(sequences, cap=args.vocab_cap)
    vocab.save(out_dir / "vocab.txt")

    splits = build_detector_dataset(articles, schema, vocab, seed=args.seed)
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

def _require(config: RunConfig, *keys: str) -> None:
    missing = [key for key in keys if not getattr(config, key)]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")


def _write_log(path, config: RunConfig, columns: list[str], rows: list[dict]) -> None:
    with atomic_write(path) as handle:
        for line in format_config(config).splitlines():
            handle.write(f"# {line}\n")
        handle.write("\t".join(columns) + "\n")
        for row in rows:
            cells = []
            for column in columns:
                value = row[column]
                cells.append(f"{value:.6g}" if isinstance(value, float) else str(value))
            handle.write("\t".join(cells) + "\n")


def _build_detector_model(config: RunConfig, vocab: Vocabulary, n_classes: int) -> DetectorModel:
    rng = np.random.default_rng(config.seed)
    encoder = MeanEmbeddingEncoder(len(vocab), config.detector_embed_size,
                                   config.detector_hidden_size, rng)
    return DetectorModel(encoder, n_classes, rng)


def _load_detector(config: RunConfig, vocab: Vocabulary, n_classes: int, path) -> DetectorModel:
    detector = _build_detector_model(config, vocab, n_classes)
    checkpoint.load_into(detector.parameters(), path)
    return detector


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    log_path = args.log or f"{args.out}.log"
    _require(config, "vocab_path", "schema_path")
    vocab = Vocabulary.load(config.vocab_path)
    schema = load_topic_schema(config.schema_path, n_t=config.n_t)

    if args.stage == "detector":
        _require(config, "detector_train_path", "detector_valid_path")
        train, valid = (load_detector_dataset(path, schema.n_classes, len(vocab))
                        for path in (config.detector_train_path, config.detector_valid_path))
        model = _build_detector_model(config, vocab, schema.n_classes)
        # a diverging run is reported by fit's non-finite-loss check, not by
        # numpy's overflow warnings on the way there
        with np.errstate(all="ignore"):
            history = train_detector(model, train, valid, epochs=config.detector_epochs,
                                     lr=config.detector_lr, seed=config.seed)
        columns = ["epoch", "lr", "train_loss", "valid_accuracy", "wall_seconds"]
        summary = (f"detector: {len(train)} train / {len(valid)} valid examples, "
                   f"{config.detector_epochs} epochs\n"
                   f"final valid accuracy: {history[-1]['valid_accuracy']:.4f}")
    else:
        _require(config, "summarization_train_path", "summarization_valid_path",
                 "detector_checkpoint")
        train = load_summarization_dataset(config.summarization_train_path, vocab)
        valid = load_summarization_dataset(config.summarization_valid_path, vocab)
        detector = _load_detector(config, vocab, schema.n_classes, config.detector_checkpoint)
        train_topics = [detect_topics(ex.paragraph_ids, detector) for ex in train]
        valid_topics = [detect_topics(ex.paragraph_ids, detector) for ex in valid]
        embeddings = None
        if config.embeddings_path:
            corpus_tokens = [tokens for ex in train for tokens in ex.paragraph_tokens]
            embeddings = init_embeddings(vocab, dim=config.embed_size,
                                         pretrained_path=config.embeddings_path,
                                         corpus=corpus_tokens, seed=config.seed)
        model = GeneratorModel(len(vocab), len(schema.topics),
                               embed_dim=config.embed_size, hidden_dim=config.hidden_size,
                               seed=config.seed, embeddings=embeddings)
        with np.errstate(all="ignore"):
            history = train_generator(model, train, train_topics, valid, valid_topics,
                                      schema, vocab, epochs=config.generator_epochs,
                                      lr_first=config.generator_lr_first,
                                      lr_rest=config.generator_lr_rest,
                                      mode=config.topic_mode,
                                      stop_weight=config.stop_loss_weight,
                                      ttg_cap=config.ttg_cap, seed=config.seed)
        columns = ["epoch", "lr", "train_loss", "valid_loss", "wall_seconds"]
        summary = (f"generator: {len(train)} train / {len(valid)} valid examples, "
                   f"{config.generator_epochs} epochs ({config.topic_mode} mode)\n"
                   f"final valid loss: {history[-1]['valid_loss']:.4f}")
    checkpoint.save_tensors(args.out, model.parameters())
    _write_log(log_path, config, columns, history)
    print(summary)
    print(f"checkpoint: {args.out}")
    print(f"log: {log_path}")
    return 0


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    config = load_config(args.config)
    _require(config, "vocab_path", "schema_path")
    vocab = Vocabulary.load(config.vocab_path)
    schema = load_topic_schema(config.schema_path, n_t=config.n_t)
    detector = _load_detector(config, vocab, schema.n_classes, args.detector_ckpt)
    model = GeneratorModel(len(vocab), len(schema.topics), embed_dim=config.embed_size,
                           hidden_dim=config.hidden_size, seed=config.seed)
    checkpoint.load_into(model.parameters(), args.generator_ckpt)
    decode = DecodeConfig(
        topic_mode=args.mode or config.topic_mode,
        stop_threshold=config.stop_threshold,
        max_sentences=config.max_sentences,
        max_sentence_tokens=config.max_sentence_tokens,
        beam_size=args.beam if args.beam is not None else config.beam_size,
        ttg_cap=config.ttg_cap,
    )
    examples = load_summarization_dataset(args.input, vocab, require_abstract=False)
    written = 0
    with atomic_write(args.out) as handle:
        for example in examples:
            assignments = detect_topics(example.paragraph_ids, detector)
            try:
                sentences = generate_abstract(model, example.paragraph_tokens,
                                              assignments, schema, vocab, decode)
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
    abstracts: list[list[list[str]]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.rstrip("\n")
            sentences = [tokenize(s) for s in split_sentences(text)]
            abstracts.append([s for s in sentences if s])
    return abstracts


def cmd_evaluate(args) -> int:
    generated = _read_abstract_lines(args.generated)
    gold = _read_abstract_lines(args.gold)
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

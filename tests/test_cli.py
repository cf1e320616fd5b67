"""End-to-end command-line pipeline on the toy corpus.

A module-scoped workspace runs build-corpus, both training stages,
generation, and evaluation once; the tests then assert on the artifacts
and on the exit-code contract.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from topicsum import autodiff as ad, checkpoint, cli
from topicsum.cli import build_parser, main
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder
from topicsum.generator import GeneratorModel, train_generator
from topicsum.synthetic import write_toy_workspace
from topicsum.text import Vocabulary

CONFIG_TEMPLATE = """\
seed = 42
schema_path = schema.txt
vocab_path = corpus/vocab.txt
detector_train_path = corpus/detector_train.tsv
detector_valid_path = corpus/detector_valid.tsv
summarization_train_path = summ_train.tsv
summarization_valid_path = summ_valid.tsv
detector_checkpoint = detector.bin
detector_embed_size = 16
detector_hidden_size = 16
detector_epochs = 2
detector_lr = 0.01
embed_size = 12
hidden_size = 12
generator_epochs = 1
generator_lr_first = 0.01
generator_lr_rest = 0.001
beam_size = 2
max_sentences = 4
max_sentence_tokens = 8
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    paths = write_toy_workspace(root, n_articles=30, n_examples=10, seed=0)
    config = root / "run.cfg"
    config.write_text(CONFIG_TEMPLATE, encoding="utf-8")

    rc = main(["build-corpus",
               "--articles", str(paths["articles"]),
               "--schema", str(paths["schema"]),
               "--out", str(root / "corpus"),
               "--summarization", str(paths["summ_train"]),
               "--vocab-cap", "500"])
    assert rc == 0

    rc = main(["train", "--stage", "detector",
               "--config", str(config),
               "--out", str(root / "detector.bin")])
    assert rc == 0

    rc = main(["train", "--stage", "generator",
               "--config", str(config),
               "--out", str(root / "generator.bin")])
    assert rc == 0

    rc = main(["generate",
               "--config", str(config),
               "--generator-ckpt", str(root / "generator.bin"),
               "--input", str(paths["summ_valid"]),
               "--out", str(root / "generated.txt")])
    assert rc == 0

    gold_lines = []
    for line in (paths["summ_valid"].read_text(encoding="utf-8").splitlines()):
        gold_lines.append(line.split("\t")[2].replace(" ⟨s⟩ ", " "))
    (root / "gold.txt").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")

    rc = main(["evaluate",
               "--generated", str(root / "generated.txt"),
               "--gold", str(root / "gold.txt"),
               "--out", str(root / "eval.tsv")])
    assert rc == 0
    return root, paths, config


def all_noise_detector_config(root, tmp_path):
    """A config in the workspace whose `detector_checkpoint` is a detector
    rigged to put every paragraph in NOISE (the last class)."""
    vocab = Vocabulary.load(root / "corpus" / "vocab.txt")
    rng = np.random.default_rng(0)
    rigged = DetectorModel(MeanEmbeddingEncoder(len(vocab), 16, 16, rng), 4, rng)
    rigged.cls_W.data[...] = 0.0
    rigged.cls_b.data[...] = [[0.0, 0.0, 0.0, 100.0]]
    checkpoint.save_tensors(tmp_path / "noise_detector.bin", rigged.parameters())
    config = root / "noise_detector.cfg"
    config.write_text(CONFIG_TEMPLATE.replace(
        "detector_checkpoint = detector.bin",
        f"detector_checkpoint = {tmp_path / 'noise_detector.bin'}"), encoding="utf-8")
    return config


class TestBuildCorpus:
    def test_artifacts_exist(self, workspace):
        root, _, _ = workspace
        corpus = root / "corpus"
        for name in ("vocab.txt", "label_stats.tsv", "detector_train.tsv",
                     "detector_valid.tsv", "detector_test.tsv"):
            assert (corpus / name).is_file(), name

    def test_vocabulary_loads_and_covers_banks(self, workspace):
        root, _, _ = workspace
        vocab = Vocabulary.load(root / "corpus" / "vocab.txt")
        for word in ("tundra", "lemming", "fur"):
            assert word in vocab

    def test_label_stats_sorted_by_count(self, workspace):
        root, _, _ = workspace
        rows = (root / "corpus" / "label_stats.tsv").read_text("utf-8").splitlines()
        counts = [int(line.split("\t")[2]) for line in rows]
        assert counts == sorted(counts, reverse=True)

    def test_rerun_is_deterministic(self, workspace, tmp_path):
        root, paths, _ = workspace
        rc = main(["build-corpus",
                   "--articles", str(paths["articles"]),
                   "--schema", str(paths["schema"]),
                   "--out", str(tmp_path / "corpus2"),
                   "--summarization", str(paths["summ_train"]),
                   "--vocab-cap", "500"])
        assert rc == 0
        for name in ("vocab.txt", "detector_train.tsv", "detector_valid.tsv",
                     "detector_test.tsv", "label_stats.tsv"):
            first = (root / "corpus" / name).read_bytes()
            second = (tmp_path / "corpus2" / name).read_bytes()
            assert first == second, name

    def test_outputs_equal_their_golden_digests(self, workspace):
        """SHA-256 of each file the workspace's build-corpus wrote.  Corpus
        building involves no BLAS or floating point, so the bytes are the
        same on every host; a change to tokenizing, labelling, splitting or
        writing shows here."""
        root, _, _ = workspace
        golden = {
            "vocab.txt": "704d83b794add93a64c0c24e80e8a0009b7a2dad99dee6e158613bfecf548543",
            "label_stats.tsv": "8b3b8e5c1042fef478c2d6ea9380f06bd98062ab76866b04e2cab7a9ec0a099d",
            "detector_train.tsv": "d81f97628ae3976403f4d74eef7a852cbccf3d66b84219ce09cd57673163ac8e",
            "detector_valid.tsv": "362e29baaa57b3383c9b54dfe29ddd15647f97d487a5b2944e914d462a9a5cf5",
            "detector_test.tsv": "30822e1e7909c5bb47aa7283c2cc65218721fc75db94c32f5f0b22edad1e20bb",
        }
        digests = {name: hashlib.sha256((root / "corpus" / name).read_bytes()).hexdigest()
                   for name in golden}
        assert digests == golden

    def test_vocabulary_counts_a_stream_not_a_held_list(self, workspace, tmp_path,
                                                         monkeypatch):
        root, paths, _ = workspace
        build, handed = Vocabulary.build, []

        def recording_build(corpus, cap):
            handed.append(corpus)
            return build(corpus, cap=cap)

        monkeypatch.setattr(Vocabulary, "build", recording_build)
        rc = main(["build-corpus", "--articles", str(paths["articles"]),
                   "--schema", str(paths["schema"]), "--out", str(tmp_path / "corpus"),
                   "--summarization", str(paths["summ_train"]), "--vocab-cap", "500"])
        assert rc == 0
        (corpus,) = handed
        assert iter(corpus) is corpus  # an iterator: each token list is dropped once counted
        assert ((tmp_path / "corpus" / "vocab.txt").read_bytes()
                == (root / "corpus" / "vocab.txt").read_bytes())

    def test_summary_lines_printed(self, workspace, tmp_path, capsys):
        _, paths, _ = workspace
        main(["build-corpus", "--articles", str(paths["articles"]),
              "--schema", str(paths["schema"]), "--out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert "articles: 30" in out
        assert "vocabulary:" in out
        assert "seed: 42" in out


class TestTrainArtifacts:
    def test_checkpoints_written(self, workspace):
        root, _, _ = workspace
        detector = checkpoint.load_tensors(root / "detector.bin")
        assert "cls_W" in detector and "encoder.embed" in detector
        generator = checkpoint.load_tensors(root / "generator.bin")
        assert "embed" in generator and "dec_cell.W_z" in generator
        assert generator["embed"].shape[1] == 12

    def test_log_header_holds_resolved_config(self, workspace):
        root, _, _ = workspace
        lines = (root / "detector.bin.log").read_text("utf-8").splitlines()
        header = [line for line in lines if line.startswith("# ")]
        assert "# seed = 42" in header
        assert "# detector_epochs = 2" in header
        assert "# detector_lr = 0.01" in header
        # relative config paths appear resolved
        vocab_line = next(line for line in header if line.startswith("# vocab_path"))
        assert str(root / "corpus" / "vocab.txt") in vocab_line

    def test_log_has_one_row_per_epoch(self, workspace):
        root, _, _ = workspace
        lines = [line for line in
                 (root / "detector.bin.log").read_text("utf-8").splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "epoch\tlr\ttrain_loss\tgrad_norm\tvalid_accuracy\twall_seconds"
        assert len(lines) == 1 + 2  # header + detector_epochs rows
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert float(first[2]) > 0.0

    def test_generator_log_columns(self, workspace):
        root, _, _ = workspace
        lines = [line for line in
                 (root / "generator.bin.log").read_text("utf-8").splitlines()
                 if not line.startswith("#")]
        assert lines[0] == ("epoch\tlr\ttrain_loss\ttrain_nll\ttrain_stop\tgrad_norm"
                            "\tvalid_loss\twall_seconds")
        assert len(lines) == 1 + 1
        train_loss, train_nll, train_stop, grad_norm = (float(cell) for cell in
                                                        lines[1].split("\t")[2:6])
        assert 0.0 < train_nll < train_loss  # the total adds the stop loss
        # stop_loss_weight is 1, so the total is the NLL plus the stop loss
        assert train_stop > 0.0
        assert train_loss == pytest.approx(train_nll + train_stop, rel=1e-4)
        assert 0.0 < grad_norm < float("inf")

    def test_seed_comes_from_the_config(self, workspace, tmp_path):
        root, _, _ = workspace
        config = root / "seed_seven.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("seed = 42", "seed = 7"), encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 0
        header = (tmp_path / "d.bin.log").read_text("utf-8")
        assert "# seed = 7" in header
        assert (tmp_path / "d.bin").read_bytes() != (root / "detector.bin").read_bytes()

    def test_pretrained_vectors_overwrite_rows_of_the_drawn_model(self, workspace, tmp_path,
                                                                   monkeypatch):
        root, _, _ = workspace
        words = (root / "corpus" / "vocab.txt").read_text("utf-8").splitlines()[4:7]
        vectors = {word: np.arange(12, dtype=np.float32) / (row + 2)
                   for row, word in enumerate(words)}
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{word} " + " ".join(str(v) for v in vector) + "\n"
                                for word, vector in vectors.items()), encoding="utf-8")
        config = root / "pretrained.cfg"
        config.write_text(CONFIG_TEMPLATE + f"embeddings_path = {path}\n", encoding="utf-8")
        trained = []

        def record_initial_weights(model, *args, **kwargs):
            trained.append((model, {name: p.data.copy()
                                    for name, p in model.parameters().items()}))
            return train_generator(model, *args, **kwargs)

        monkeypatch.setattr(cli, "train_generator", record_initial_weights)
        out = tmp_path / "generator.bin"
        rc = main(["train", "--stage", "generator", "--config", str(config), "--out", str(out)])
        assert rc == 0 and out.exists()
        (model, initial), = trained
        vocab = Vocabulary.load(root / "corpus" / "vocab.txt")
        for word, vector in vectors.items():
            assert np.array_equal(initial["embed"][vocab.token_to_id(word)], vector), word
        # every other weight is the one the same seed draws without vectors
        plain = GeneratorModel(model.vocab_size, model.n_topics, embed_dim=12, hidden_dim=12,
                               seed=42).parameters()
        for name, data in initial.items():
            if name != "embed":
                assert np.array_equal(data, plain[name].data), name

    def test_hard_topic_mode_trains_the_soft_mixture(self, workspace, tmp_path):
        # topic_mode chooses generation's topic context; training always
        # runs the soft mixture, so a config shared with generate trains too
        root, _, _ = workspace
        config = root / "hard_mode.cfg"
        config.write_text(CONFIG_TEMPLATE + "topic_mode = hard\n", encoding="utf-8")
        out = tmp_path / "generator.bin"
        rc = main(["train", "--stage", "generator", "--config", str(config), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (root / "generator.bin").read_bytes()

        def log_lines(path):
            # the header without its topic_mode line, the rows without wall_seconds
            lines = path.read_text("utf-8").splitlines()
            return ([line for line in lines if line.startswith("# ")
                     and not line.startswith("# topic_mode = ")],
                    [line.split("\t")[:-1] for line in lines if not line.startswith("#")])

        assert "# topic_mode = hard" in (tmp_path / "generator.bin.log").read_text("utf-8")
        assert log_lines(tmp_path / "generator.bin.log") == log_lines(root / "generator.bin.log")

    def test_detector_stage_ignores_the_vectors_file(self, workspace, tmp_path, capsys):
        # only the generator reads embeddings_path, so only it checks the file
        root, _, _ = workspace
        missing = tmp_path / "missing_vectors.txt"
        config = root / "missing_vectors.cfg"
        config.write_text(CONFIG_TEMPLATE + f"embeddings_path = {missing}\n", encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 0
        assert (tmp_path / "d.bin").read_bytes() == (root / "detector.bin").read_bytes()
        capsys.readouterr()
        rc = main(["train", "--stage", "generator", "--config", str(config),
                   "--out", str(tmp_path / "g.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}:{len(CONFIG_TEMPLATE.splitlines()) + 1}: 'embeddings_path' "
            f"names a missing file: {missing}\n")
        assert not (tmp_path / "g.bin").exists()

    def test_same_seed_reproduces_checkpoint(self, workspace, tmp_path):
        root, _, config = workspace
        for name in ("a.bin", "b.bin"):
            rc = main(["train", "--stage", "detector", "--config", str(config),
                       "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestGenerate:
    def test_one_line_per_record(self, workspace):
        root, paths, _ = workspace
        n_records = len(paths["summ_valid"].read_text("utf-8").splitlines())
        generated = (root / "generated.txt").read_text("utf-8").splitlines()
        assert len(generated) == n_records

    def test_greedy_beam_size_is_deterministic(self, workspace, tmp_path):
        root, paths, _ = workspace
        config = root / "greedy.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("beam_size = 2", "beam_size = 1"),
                          encoding="utf-8")
        outputs = []
        for name in ("g1.txt", "g2.txt"):
            rc = main(["generate", "--config", str(config),
                       "--generator-ckpt", str(root / "generator.bin"),
                       "--input", str(paths["summ_valid"]),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_beam_size_returns_two_naming_the_config_line(self, workspace, tmp_path,
                                                               capsys):
        root, paths, _ = workspace
        config = root / "zero_beam.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("beam_size = 2", "beam_size = 0"),
                          encoding="utf-8")
        line = CONFIG_TEMPLATE.splitlines().index("beam_size = 2") + 1
        out = tmp_path / "g.txt"
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}:{line}: 'beam_size' must be at least 1, got 0\n")
        assert not out.exists()

    def test_all_noise_detector_writes_empty_lines(self, workspace, tmp_path, capsys):
        root, paths, _ = workspace
        rc = main(["generate", "--config", str(all_noise_detector_config(root, tmp_path)),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]),
                   "--out", str(tmp_path / "empty.txt")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "skipping" in err
        lines = (tmp_path / "empty.txt").read_text("utf-8").split("\n")[:-1]
        assert all(line == "" for line in lines)
        n_records = len(paths["summ_valid"].read_text("utf-8").splitlines())
        assert len(lines) == n_records  # alignment preserved

    # the second record's three fields are all blank: one record, not a blank line
    @pytest.mark.parametrize("fields", [("{title} again", " ⟨p⟩ ", "{abstract}"), ("", " ", "")],
                             ids=["no-paragraphs", "all-blank"])
    def test_record_without_paragraphs_keeps_its_empty_line(self, workspace, tmp_path, capsys,
                                                             fields):
        root, paths, config = workspace
        first, last = paths["summ_valid"].read_text("utf-8").splitlines()[:2]
        title, _, abstract = first.split("\t")
        fields = [field.format(title=title, abstract=abstract) for field in fields]
        records = [first, "\t".join(fields), last]
        source = tmp_path / "input.tsv"
        source.write_text("\n".join(records) + "\n", encoding="utf-8")
        out = tmp_path / "generated.txt"
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(source), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == (f"skipping '{fields[0]}': no usable input: every paragraph "
                                "was assigned to NOISE or empty\n")
        assert f"abstracts: 2 of 3 records -> {out}" in captured.out
        lines = out.read_text("utf-8").split("\n")[:-1]
        assert len(lines) == 3 and lines[1] == "" and lines[0] and lines[2]

    def test_truncated_generator_checkpoint_returns_two(self, workspace, tmp_path, capsys):
        root, paths, config = workspace
        truncated = tmp_path / "generator.bin"
        truncated.write_bytes((root / "generator.bin").read_bytes()[:-5])
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(truncated),
                   "--input", str(paths["summ_valid"]),
                   "--out", str(tmp_path / "out.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {truncated}: truncated archive")
        assert not (tmp_path / "out.txt").exists()

    def test_hard_topic_mode_from_the_config_generates(self, workspace, tmp_path):
        root, paths, _ = workspace
        config = root / "hard_generate.cfg"
        config.write_text(CONFIG_TEMPLATE + "topic_mode = hard\n", encoding="utf-8")
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]),
                   "--out", str(tmp_path / "hard.txt")])
        assert rc == 0
        n_records = len(paths["summ_valid"].read_text("utf-8").splitlines())
        assert len((tmp_path / "hard.txt").read_text("utf-8").splitlines()) == n_records

    def test_failure_midway_keeps_the_old_output(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        root, paths, config = workspace
        out = tmp_path / "abstracts.txt"
        out.write_text("old abstracts\n", encoding="utf-8")
        import topicsum.cli as cli
        calls = []

        def failing_second_time(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("generation failed")
            return [["tundra", "."]]

        monkeypatch.setattr(cli, "generate_abstract", failing_second_time)
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]), "--out", str(out)])
        assert rc == 1 and "generation failed" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "old abstracts\n"
        assert [p.name for p in tmp_path.iterdir()] == ["abstracts.txt"]


# the four model-size lines of CONFIG_TEMPLATE, detector first
SIZE_LINES = ("detector_embed_size = 16\n", "detector_hidden_size = 16\n",
              "embed_size = 12\n", "hidden_size = 12\n")


def config_without(root, name, lines, extra=""):
    """A config in the workspace: the template without `lines`, plus `extra`."""
    text = CONFIG_TEMPLATE
    for line in lines:
        text = text.replace(line, "")
    config = root / name
    config.write_text(text + extra, encoding="utf-8")
    return config


class TestLoadedModelSizes:
    """A loaded model takes its sizes from its checkpoint's tensor headers;
    the config's size keys are read only by the stage that trains a model."""

    def generate(self, workspace, config, out, ckpt="generator.bin"):
        root, paths, _ = workspace
        return main(["generate", "--config", str(config),
                     "--generator-ckpt", str(root / ckpt),
                     "--input", str(paths["summ_valid"]), "--out", str(out)])

    @pytest.mark.parametrize("extra", [
        "", "detector_embed_size = 5\ndetector_hidden_size = 3\nembed_size = 7\nhidden_size = 9\n",
    ], ids=["no_size_keys", "wrong_sizes"])
    def test_generate_writes_the_same_abstracts_whatever_the_size_keys(self, workspace,
                                                                        tmp_path, extra):
        root, _, _ = workspace
        config = config_without(root, f"sizes_{len(extra)}.cfg", SIZE_LINES, extra)
        out = tmp_path / "generated.txt"
        assert self.generate(workspace, config, out) == 0
        assert out.read_bytes() == (root / "generated.txt").read_bytes()

    def test_train_generator_writes_the_same_checkpoint_without_detector_sizes(
            self, workspace, tmp_path):
        root, _, _ = workspace
        config = config_without(root, "no_detector_sizes.cfg", SIZE_LINES[:2])
        out = tmp_path / "generator.bin"
        assert main(["train", "--stage", "generator", "--config", str(config),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (root / "generator.bin").read_bytes()

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("damaged", ["vocab", "schema"])
    def test_count_other_than_the_checkpoints_returns_two_naming_the_file(
            self, workspace, tmp_path, capsys, command, damaged):
        root, paths, _ = workspace
        if damaged == "vocab":
            line, source = "vocab_path = corpus/vocab.txt", root / "corpus" / "vocab.txt"
            count, noun = len(Vocabulary.load(source)), "tokens"
            text = "".join(source.read_text("utf-8").splitlines(keepends=True)[:-1])
        else:
            line, source = "schema_path = schema.txt", paths["schema"]
            count, noun = 3, "topics"
            text = source.read_text("utf-8").replace("appearance: appearance\n", "")
        cut = tmp_path / source.name
        cut.write_text(text, encoding="utf-8")
        config = root / f"cut_{damaged}_{command}.cfg"
        config.write_text(CONFIG_TEMPLATE.replace(line, f"{line.split(' = ')[0]} = {cut}"),
                          encoding="utf-8")
        out = tmp_path / "out"
        if command == "generate":
            rc, ckpt = self.generate(workspace, config, out), root / "generator.bin"
        else:
            rc = main(["train", "--stage", "generator", "--config", str(config),
                       "--out", str(out)])
            ckpt = root / "detector.bin"
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {cut}: {count - 1} {noun}, "
                                           f"but {ckpt} was trained with {count}\n")
        assert [p.name for p in tmp_path.iterdir()] == [cut.name]

    def test_detector_as_generator_checkpoint_returns_two_naming_it(self, workspace,
                                                                     tmp_path, capsys):
        root, _, config = workspace
        out = tmp_path / "out.txt"
        assert self.generate(workspace, config, out, ckpt="detector.bin") == 2
        assert capsys.readouterr().err == (
            f"error: {root / 'detector.bin'}: unknown tensor names in archive: "
            "cls_W, cls_b, encoder.embed, encoder.proj_W, encoder.proj_b\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_generator_as_detector_checkpoint_returns_two_naming_it(self, workspace,
                                                                     tmp_path, capsys, command):
        root, _, _ = workspace
        config = root / f"generator_as_detector_{command}.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("detector_checkpoint = detector.bin",
                                                  "detector_checkpoint = generator.bin"),
                          encoding="utf-8")
        out = tmp_path / "out"
        rc = (self.generate(workspace, config, out) if command == "generate" else
              main(["train", "--stage", "generator", "--config", str(config),
                    "--out", str(out)]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'generator.bin'}: unknown tensor names in "
                              "archive: attn_b, ") and err.count("\n") == 1, err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tensor, change", [
        ("embed", lambda value: value.reshape(-1)),
        ("topic_W", lambda value: np.zeros((2000, value.shape[1]), np.float32)),
        ("topic_W", None),
    ], ids=["embed_1d", "topic_W_too_wide", "topic_W_missing"])
    def test_malformed_generator_archive_returns_two_naming_it(self, workspace, tmp_path,
                                                               capsys, monkeypatch, tensor,
                                                               change):
        """A size the headers cannot give is left to `load_into`, which
        refuses the archive; no model is built at a width no config allows."""
        root, _, config = workspace
        tensors = checkpoint.load_tensors(root / "generator.bin")
        if change is None:
            del tensors[tensor]
        else:
            tensors[tensor] = change(tensors[tensor])
        bad = tmp_path / "bad.bin"
        checkpoint.save_tensors(bad, tensors)
        built = []
        monkeypatch.setattr(cli, "GeneratorModel",
                            lambda *args, **kwargs: built.append(args[2:4])
                            or GeneratorModel(*args, **kwargs))
        out = tmp_path / "out.txt"
        assert self.generate(workspace, config, out, ckpt=bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        assert not out.exists()
        assert len(built) == 1 and max(built[0]) <= 1024


class TestDeferredDraws:
    """With every seeded weight draw deferred (`ad._DEFER_MIN` at 0), a
    model the CLI loads from a checkpoint draws no weight, and the outputs
    are byte for byte those of the workspace's eager draws."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """(the sizes `ad._fill_uniform` draws, the parameters of each
        `load_into` call, how many of them were pending at the call)"""
        monkeypatch.setattr(ad, "_DEFER_MIN", 0)
        draws, loaded, pending = [], [], []
        fill, load_into = ad._fill_uniform, checkpoint.load_into

        def counting_fill(rng, flat):
            draws.append(flat.size)
            fill(rng, flat)

        def recording_load(params, path):
            loaded.append(params)
            pending.append(sum(type(p) is ad._Pending for p in params.values()))
            load_into(params, path)

        monkeypatch.setattr(ad, "_fill_uniform", counting_fill)
        monkeypatch.setattr(checkpoint, "load_into", recording_load)
        return draws, loaded, pending

    def test_generate_draws_no_weight(self, workspace, tmp_path, spied):
        root, paths, config = workspace
        draws, loaded, pending = spied
        out = tmp_path / "generated.txt"
        assert main(["generate", "--config", str(config),
                     "--generator-ckpt", str(root / "generator.bin"),
                     "--input", str(paths["summ_valid"]), "--out", str(out)]) == 0
        assert draws == [] and len(loaded) == 2 and min(pending) > 0
        assert all(type(p) is ad.Tensor for params in loaded for p in params.values())
        assert out.read_bytes() == (root / "generated.txt").read_bytes()

    def test_train_generator_draws_no_detector_weight(self, workspace, tmp_path, spied,
                                                      monkeypatch):
        root, _, config = workspace
        draws, loaded, pending = spied
        counts, detected = [], cli._detected_topics

        def counting(*args):
            counts.append(len(draws))
            topics = detected(*args)
            counts.append(len(draws))
            return topics

        monkeypatch.setattr(cli, "_detected_topics", counting)
        out = tmp_path / "generator.bin"
        assert main(["train", "--stage", "generator", "--config", str(config),
                     "--out", str(out)]) == 0
        # the detector is loaded and not drawn; the generator it trains is drawn
        assert counts[0] == counts[1] < len(draws) and len(loaded) == 1 and pending[0] > 0
        assert all(type(p) is ad.Tensor for p in loaded[0].values())
        assert out.read_bytes() == (root / "generator.bin").read_bytes()


class TestEvaluate:
    def test_report_written_with_mean_row(self, workspace):
        root, _, _ = workspace
        lines = (root / "eval.tsv").read_text("utf-8").splitlines()
        assert lines[0] == "example\trouge1_f1\trouge2_f1\trougeL_f1"
        assert lines[-1].startswith("MEAN\t")

    def test_identical_files_score_one(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        gold = root / "gold.txt"
        rc = main(["evaluate", "--generated", str(gold), "--gold", str(gold),
                   "--out", str(tmp_path / "self.tsv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rouge1_f1: 1.0000" in out
        assert "rougeL_f1: 1.0000" in out

    def test_sentence_markers_in_gold_score_as_boundaries(self, tmp_path):
        generated = tmp_path / "generated.txt"
        generated.write_text("alpha beta gamma . delta epsilon .\n", encoding="utf-8")
        reports = []
        for name, line in (("marked", "alpha beta gamma . ⟨s⟩ delta epsilon ."),
                           ("plain", "alpha beta gamma . delta epsilon .")):
            gold = tmp_path / f"{name}.txt"
            gold.write_text(line + "\n", encoding="utf-8")
            out = tmp_path / f"{name}.tsv"
            assert main(["evaluate", "--generated", str(generated), "--gold", str(gold),
                         "--out", str(out)]) == 0
            reports.append(out.read_text("utf-8"))
        assert reports[0] == reports[1]
        assert reports[0].splitlines()[-1] == "MEAN\t1.000000\t1.000000\t1.000000"


class TestExitCodes:
    def test_missing_input_file_returns_two(self, tmp_path, capsys):
        rc = main(["evaluate", "--generated", str(tmp_path / "nope.txt"),
                   "--gold", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "r.tsv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unequal_line_counts_name_both_files(self, tmp_path, capsys):
        generated, gold = tmp_path / "generated.txt", tmp_path / "gold.txt"
        generated.write_text("a b .\n", encoding="utf-8")
        gold.write_text("a b .\nc d .\n", encoding="utf-8")
        rc = main(["evaluate", "--generated", str(generated), "--gold", str(gold),
                   "--out", str(tmp_path / "r.tsv")])
        assert rc == 2
        assert (f"error: {generated} holds 1 abstracts but {gold} holds 2; "
                "the files must align line by line") in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "build-corpus"])
    def test_input_that_is_not_utf8_returns_two_naming_path_and_line(self, workspace, tmp_path,
                                                                     capsys, command):
        _, paths, _ = workspace
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good line\nbad \xff line\n")
        if command == "evaluate":
            argv = ["evaluate", "--generated", str(bad), "--gold", str(bad),
                    "--out", str(tmp_path / "r.tsv")]
        else:
            argv = ["build-corpus", "--articles", str(bad), "--schema", str(paths["schema"]),
                    "--out", str(tmp_path / "corpus")]
        assert main(argv) == 2
        assert f"error: {bad}:2: not UTF-8 at offset 14" in capsys.readouterr().err

    def test_bad_config_returns_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("unknown_knob = 3\n", encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert "unknown_knob" in capsys.readouterr().err

    def test_config_key_set_twice_returns_two_naming_both_lines(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("beam_size = 2\nbeam_size = 7\n", encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}:2: 'beam_size' is already set on line 1\n")
        assert not (tmp_path / "d.bin").exists()

    def test_missing_required_config_keys_return_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\n", encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert "vocab_path" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["detector", "generator"])
    def test_missing_required_config_keys_name_the_config(self, tmp_path, capsys, stage):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\n", encoding="utf-8")
        rc = main(["train", "--stage", stage, "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}: config is missing required keys: vocab_path, schema_path\n")

    def test_generate_without_a_detector_checkpoint_returns_two_naming_the_config(
            self, workspace, tmp_path, capsys):
        root, paths, _ = workspace
        config = root / "no_detector.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("detector_checkpoint = detector.bin\n", ""),
                          encoding="utf-8")
        out = tmp_path / "g.txt"
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}: config is missing required keys: detector_checkpoint\n")
        assert not out.exists()

    def test_label_tier_in_the_config_is_an_unknown_key(self, workspace, tmp_path, capsys):
        # the tier is build-corpus's --n-t; train and generate read no label sets
        root, paths, _ = workspace
        config = root / "tiered.cfg"
        config.write_text(CONFIG_TEMPLATE + "n_t = 20\n", encoding="utf-8")
        out = tmp_path / "g.txt"
        rc = main(["generate", "--config", str(config),
                   "--generator-ckpt", str(root / "generator.bin"),
                   "--input", str(paths["summ_valid"]), "--out", str(out)])
        assert rc == 2
        lineno = len(CONFIG_TEMPLATE.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {config}:{lineno}: unknown config key 'n_t'\n"
        assert not out.exists()

    def test_negative_label_tier_returns_two_and_writes_nothing(self, workspace, tmp_path,
                                                                capsys):
        _, paths, _ = workspace
        out = tmp_path / "corpus"
        rc = main(["build-corpus", "--articles", str(paths["articles"]),
                   "--schema", str(paths["schema"]), "--out", str(out), "--n-t", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: 'n_t' must be at least 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("stage, key", [("detector", "detector_train_path"),
                                            ("generator", "summarization_train_path")])
    def test_empty_training_set_names_the_dataset(self, workspace, tmp_path, capsys, stage,
                                                  key):
        root, _, _ = workspace
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        config = root / f"empty_{stage}.cfg"
        line = next(line for line in CONFIG_TEMPLATE.splitlines() if line.startswith(key))
        config.write_text(CONFIG_TEMPLATE.replace(line, f"{key} = {empty}"), encoding="utf-8")
        out = tmp_path / "model.bin"
        rc = main(["train", "--stage", stage, "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {empty}: empty training set\n"
        assert not out.exists()

    @staticmethod
    def run_with_huge(root, key, argv):
        """`argv` with the config's `key` at 99999999999, in a child process
        under a 2 GiB address-space limit and a timeout, so that a value the
        config lets through fails the test rather than the test runner.
        Returns the finished child, the config and the key's line."""
        lines = CONFIG_TEMPLATE.splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
        lines[lineno - 1] = f"{key} = 99999999999"
        config = root / f"huge_{key}.cfg"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        child = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                 "from topicsum.cli import main; sys.exit(main(sys.argv[1:]))")
        package_root = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child, *argv, "--config", str(config)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [package_root, os.environ.get("PYTHONPATH", "")])})
        return done, config, lineno

    @pytest.mark.parametrize("key", ["beam_size", "max_sentences", "max_sentence_tokens"])
    def test_huge_decoding_count_returns_two_naming_path_and_line(self, workspace, tmp_path,
                                                                  key):
        root, paths, _ = workspace
        out = tmp_path / "g.txt"
        done, config, lineno = self.run_with_huge(root, key, [
            "generate", "--generator-ckpt", str(root / "generator.bin"),
            "--input", str(paths["summ_valid"]), "--out", str(out)])
        assert done.returncode == 2, done.stderr
        bound = {"max_sentence_tokens": 200}.get(key, 32)
        assert done.stderr == (f"error: {config}:{lineno}: '{key}' must be at most {bound}, "
                               f"got 99999999999\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, stage", [("embed_size", "generator"),
                                            ("hidden_size", "generator"),
                                            ("detector_embed_size", "detector"),
                                            ("detector_hidden_size", "detector")])
    def test_huge_model_size_returns_two_naming_path_and_line(self, workspace, tmp_path, key,
                                                              stage):
        root, _, _ = workspace
        out = tmp_path / "model.bin"
        done, config, lineno = self.run_with_huge(
            root, key, ["train", "--stage", stage, "--out", str(out)])
        assert done.returncode == 2, done.stderr
        assert done.stderr == (f"error: {config}:{lineno}: '{key}' must be at most 1024, "
                               f"got 99999999999\n")
        assert not out.exists()

    def test_non_finite_training_loss_returns_two_and_writes_nothing(self, workspace,
                                                                     tmp_path, capsys):
        root, _, _ = workspace
        config = root / "diverging.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("detector_lr = 0.01", "detector_lr = 1e38"),
                          encoding="utf-8")
        out = tmp_path / "d.bin"
        with warnings.catch_warnings():
            # numpy's overflow warnings on the way to the non-finite loss
            # would be extra stderr lines
            warnings.simplefilter("error")
            rc = main(["train", "--stage", "detector", "--config", str(config),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "non-finite loss" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert not (tmp_path / "d.bin.log").exists()

    @pytest.mark.parametrize("bad_line", ["99\t4 5 6", "-1\t4 5", "0\t4 5 999999", "0 4 5"],
                             ids=["topic_too_large", "negative_topic", "token_id_too_large",
                                  "no_tab"])
    def test_out_of_range_detector_row_returns_two(self, workspace, tmp_path, capsys,
                                                   bad_line):
        root, _, _ = workspace
        data = tmp_path / "detector_train.tsv"
        data.write_text(bad_line + "\n" + (root / "corpus" / "detector_train.tsv").read_text(
            encoding="utf-8"), encoding="utf-8")
        config = root / "bad_detector_data.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("corpus/detector_train.tsv", str(data)),
                          encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert f"{data}:1: " in capsys.readouterr().err

    def test_negative_seed_returns_two_naming_the_key(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        config = root / "negative_seed.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("seed = 42", "seed = -3"), encoding="utf-8")
        assert main(["train", "--stage", "detector", "--out", str(tmp_path / "d.bin"),
                     "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:1: 'seed' must be at least 0, got -3\n"
        assert not (tmp_path / "d.bin").exists()
        assert not (tmp_path / "d.bin.log").exists()

    def test_pretrained_vectors_of_the_wrong_width_return_two(self, workspace, tmp_path,
                                                               capsys):
        root, _, _ = workspace
        word = (root / "corpus" / "vocab.txt").read_text("utf-8").splitlines()[4]
        path = tmp_path / "vectors.txt"
        path.write_text(word + " 0.5" * 11 + "\n", encoding="utf-8")
        config = root / "narrow_vectors.cfg"
        config.write_text(CONFIG_TEMPLATE + f"embeddings_path = {path}\n", encoding="utf-8")
        out = tmp_path / "generator.bin"
        rc = main(["train", "--stage", "generator", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {path}:1: expected a word and 12 values, "
                                           "got 12 fields\n")
        assert not out.exists()
        assert not (tmp_path / "generator.bin.log").exists()

    @pytest.mark.parametrize("record", ['{"title": "A", "sections": 5}',
                                        '{"title": "A", "sections": null}'],
                             ids=["number", "null"])
    def test_sections_that_are_not_a_list_return_two(self, workspace, tmp_path, capsys,
                                                     record):
        _, paths, _ = workspace
        articles = tmp_path / "articles.jsonl"
        articles.write_text(record + "\n", encoding="utf-8")
        rc = main(["build-corpus", "--articles", str(articles), "--schema", str(paths["schema"]),
                   "--out", str(tmp_path / "corpus")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {articles}:1: 'sections' must be a list "
                                           "of [label, text] pairs\n")

    @pytest.mark.parametrize("record, field", [
        (r'{"title": "entity3\ud800", "sections": [["diet", "x"]]}', "'title'"),
        (r'{"title": "A", "sections": [["diet", "x"], ["habitat", "a \udc80 b"]]}',
         "a section text"),
    ], ids=["title", "text"])
    def test_lone_surrogate_returns_two_before_any_output(self, workspace, tmp_path, capsys,
                                                          record, field):
        _, paths, _ = workspace
        articles = tmp_path / "articles.jsonl"
        articles.write_text('{"title": "B", "sections": [["diet", "y"]]}\n' + record + "\n",
                            encoding="utf-8")
        out = tmp_path / "corpus"
        rc = main(["build-corpus", "--articles", str(articles), "--schema", str(paths["schema"]),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {articles}:2: {field} holds a lone "
                                                  "surrogate")
        assert not out.exists()

    def test_json_nested_too_deep_returns_two_before_any_output(self, workspace, tmp_path,
                                                                capsys):
        _, paths, _ = workspace
        articles = tmp_path / "articles.jsonl"
        depth = 100_000
        articles.write_text('{"title": "B", "sections": [["diet", "y"]]}\n'
                            '{"title": "x", "sections": ' + "[" * depth + "]" * depth + "}\n",
                            encoding="utf-8")
        out = tmp_path / "corpus"
        rc = main(["build-corpus", "--articles", str(articles), "--schema", str(paths["schema"]),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {articles}:2: invalid JSON (maximum recursion depth")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("label", ["habitat\tdiet", "line\nbreak", "carriage\rreturn"],
                             ids=["tab", "newline", "carriage-return"])
    def test_label_holding_a_tab_or_line_break_returns_two_before_any_output(
            self, workspace, tmp_path, capsys, label):
        _, paths, _ = workspace
        articles = tmp_path / "articles.jsonl"
        record = json.dumps({"title": "A", "sections": [["diet", "x"], [label, "y"]]})
        articles.write_text('{"title": "B", "sections": [["diet", "y"]]}\n' + record + "\n",
                            encoding="utf-8")
        out = tmp_path / "corpus"
        rc = main(["build-corpus", "--articles", str(articles), "--schema", str(paths["schema"]),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {articles}:2: section label {label!r} "
                                           "holds a tab or line break\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train_output_in_a_missing_directory_returns_two_before_training(
            self, workspace, tmp_path, capsys, monkeypatch, flag):
        _, _, config = workspace
        trained = []
        monkeypatch.setattr(cli, "train_detector", lambda *args, **kwargs: trained.append(1))
        outputs = {"--out": tmp_path / "d.bin", "--log": tmp_path / "d.log"}
        outputs[flag] = tmp_path / "nodir" / outputs[flag].name
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(outputs["--out"]), "--log", str(outputs["--log"])])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {outputs[flag]}: no such directory: "
                                           f"{tmp_path / 'nodir'}\n")
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_output_in_a_missing_directory_is_named_as_given(self, workspace, tmp_path, capsys,
                                                             monkeypatch, command):
        root, paths, config = workspace
        monkeypatch.chdir(tmp_path)
        if command == "generate":
            argv = ["generate", "--config", str(config),
                    "--generator-ckpt", str(root / "generator.bin"),
                    "--input", str(paths["summ_valid"]), "--out", "nodir/generated.txt"]
        else:
            argv = ["evaluate", "--generated", str(root / "gold.txt"),
                    "--gold", str(root / "gold.txt"), "--out", "nodir/report.tsv"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {argv[-1]}: no such directory: nodir\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "{config}", "--generator-ckpt", "{root}/generator.bin",
         "--input", "{summ_valid}", "--out", "{tmp}/g.txt", "--beam", "1"],
        ["generate", "--config", "{config}", "--generator-ckpt", "{root}/generator.bin",
         "--input", "{summ_valid}", "--out", "{tmp}/g.txt", "--mode", "hard"],
        ["train", "--stage", "detector", "--config", "{config}", "--out", "{tmp}/d.bin",
         "--seed", "7"],
    ], ids=["generate-beam", "generate-mode", "train-seed"])
    def test_settings_are_not_flags(self, workspace, tmp_path, capsys, argv):
        # train and generate take every setting from the config, which names its line
        root, paths, config = workspace
        argv = [arg.format(config=config, root=root, summ_valid=paths["summ_valid"],
                           tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage, key", [("detector", "detector_epochs = 2"),
                                            ("generator", "generator_epochs = 1")],
                             ids=["detector", "generator"])
    def test_zero_epochs_returns_two(self, workspace, tmp_path, capsys, stage, key):
        root, _, _ = workspace
        config = root / f"zero_{stage}_epochs.cfg"
        config.write_text(CONFIG_TEMPLATE.replace(key, key.split("=")[0] + "= 0"),
                          encoding="utf-8")
        out = tmp_path / f"{stage}.bin"
        rc = main(["train", "--stage", stage, "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{config}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage, line, key", [
        ("generator", "embed_size = 12", "embed_size"),
        ("generator", "hidden_size = 12", "hidden_size"),
        ("detector", "detector_hidden_size = 16", "detector_hidden_size"),
    ], ids=["embed_size", "hidden_size", "detector_hidden_size"])
    def test_zero_model_size_returns_two(self, workspace, tmp_path, capsys, stage, line, key):
        root, _, _ = workspace
        config = root / f"zero_{key}.cfg"
        config.write_text(CONFIG_TEMPLATE.replace(line, f"{key} = 0"), encoding="utf-8")
        out = tmp_path / f"{stage}.bin"
        rc = main(["train", "--stage", stage, "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"{config}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("generator_lr_first = 0.01", "generator_lr_first"),
        ("generator_lr_rest = 0.001", "generator_lr_rest"),
    ])
    def test_non_finite_config_float_returns_two_naming_the_key(self, workspace, tmp_path,
                                                                capsys, line, key):
        root, _, _ = workspace
        config = root / f"nan_{key}.cfg"
        config.write_text(CONFIG_TEMPLATE.replace(line, f"{key} = nan"), encoding="utf-8")
        out = tmp_path / "generator.bin"
        rc = main(["train", "--stage", "generator", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{config}:" in err and f"'{key}' must be finite" in err
        assert not out.exists()

    def test_duplicate_vocabulary_token_returns_two_naming_path_and_line(self, workspace,
                                                                         tmp_path, capsys):
        root, _, _ = workspace
        vocab = tmp_path / "vocab.txt"
        lines = (root / "corpus" / "vocab.txt").read_text("utf-8").splitlines()
        vocab.write_text("\n".join(lines[:7] + [lines[4]] + lines[7:]) + "\n", encoding="utf-8")
        config = root / "duplicate_vocab.cfg"
        config.write_text(CONFIG_TEMPLATE.replace("corpus/vocab.txt", str(vocab)),
                          encoding="utf-8")
        rc = main(["train", "--stage", "detector", "--config", str(config),
                   "--out", str(tmp_path / "d.bin")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {vocab}:8: duplicate token '{lines[4]}'\n"

    def test_all_noise_detector_stops_generator_training(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        config = all_noise_detector_config(root, tmp_path)
        out = tmp_path / "generator.bin"
        rc = main(["train", "--stage", "generator", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: example 'entity") and "no usable input" in err
        assert not out.exists()
        assert not (tmp_path / "generator.bin.log").exists()

    def test_unexpected_failure_returns_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_articles",
                            lambda path: (_ for _ in ()).throw(RuntimeError("boom")))
        rc = main(["build-corpus", "--articles", "x", "--schema", "y",
                   "--out", str(tmp_path / "c")])
        assert rc == 1
        assert "runtime failure" in capsys.readouterr().err

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_takes_its_detector_only_from_the_config(self, capsys):
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(["generate", "--config", "c", "--detector-ckpt", "x",
                                       "--generator-ckpt", "g", "--input", "i", "--out", "o"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --detector-ckpt x" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--help"])
        assert "--detector-ckpt" not in capsys.readouterr().out

    def test_argparse_rejects_bad_stage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--stage", "oracle",
                                       "--config", "c", "--out", "o"])

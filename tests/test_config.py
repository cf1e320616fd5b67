"""Config file parsing, defaults, and path resolution."""

import dataclasses
import re

import pytest

from topicsum import generator
from topicsum.config import DecodeConfig, RunConfig, format_config, load_config

KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
DECODING_KEYS = [f.name for f in dataclasses.fields(DecodeConfig)]
MODEL_SIZES = ("embed_size", "hidden_size", "detector_embed_size", "detector_hidden_size")

# every rule a setting has, as (key, value in the file, message)
ILLEGAL = [
    *((key, "nan", "must be finite, got nan") for key in KINDS if KINDS[key] == "float"),
    *((key, "0", "must be at least 1, got 0")
      for key in ("detector_epochs", "generator_epochs", "embed_size", "hidden_size",
                  "detector_embed_size", "detector_hidden_size", "ttg_cap", "beam_size",
                  "max_sentences", "max_sentence_tokens")),
    ("seed", "-3", "must be at least 0, got -3"),
    ("stop_loss_weight", "-2", "must be at least 0, got -2.0"),
    *((key, value, f"must be positive, got {float(value)}")
      for key in ("detector_lr", "generator_lr_first", "generator_lr_rest")
      for value in ("0", "-1")),
    ("topic_mode", "fuzzy", "must be 'soft' or 'hard', got 'fuzzy'"),
    ("stop_threshold", "0", r"must lie in \(0, 1\), got 0.0"),
    ("stop_threshold", "1", r"must lie in \(0, 1\), got 1.0"),
    ("beam_size", "33", "must be at most 32, got 33"),
    ("max_sentences", "33", "must be at most 32, got 33"),
    ("max_sentence_tokens", "201", "must be at most 200, got 201"),
    *((key, "1025", "must be at most 1024, got 1025") for key in MODEL_SIZES),
]

# the least legal value of every bounded setting
EDGES = [("seed", "0"), ("stop_loss_weight", "0"), ("detector_lr", "1e-30"),
         ("beam_size", "1"), ("ttg_cap", "1"), ("stop_threshold", "1e-9")]

# the greatest legal value of every setting bounded from above
GREATEST = [("beam_size", "32"), ("max_sentences", "32"), ("max_sentence_tokens", "200"),
            *((key, "1024") for key in MODEL_SIZES)]


def parse(key, text):
    return {"int": int, "float": float}.get(KINDS[key], str)(text)


class TestRules:
    @pytest.mark.parametrize("key, text, message", ILLEGAL,
                             ids=[f"{key}={text}" for key, text, _ in ILLEGAL])
    def test_refused_from_a_file_and_when_built(self, tmp_path, key, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"vocab_path = vocab.txt\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: '{key}' {message}$"):
            load_config(path)
        with pytest.raises(ValueError, match=f"^'{key}' {message}$"):
            RunConfig(**{key: parse(key, text)})
        if key in DECODING_KEYS:
            with pytest.raises(ValueError, match=f"^'{key}' {message}$"):
                DecodeConfig(**{key: parse(key, text)})

    @pytest.mark.parametrize("key, text", EDGES, ids=[key for key, _ in EDGES])
    def test_least_legal_value_accepted(self, tmp_path, key, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        assert getattr(load_config(path), key) == parse(key, text)
        assert getattr(RunConfig(**{key: parse(key, text)}), key) == parse(key, text)

    @pytest.mark.parametrize("key, text", GREATEST, ids=[key for key, _ in GREATEST])
    def test_greatest_legal_value_accepted(self, tmp_path, key, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        assert getattr(load_config(path), key) == parse(key, text)
        assert getattr(RunConfig(**{key: parse(key, text)}), key) == parse(key, text)
        if key in DECODING_KEYS:
            assert getattr(DecodeConfig(**{key: parse(key, text)}), key) == parse(key, text)

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="^'beam_size' must be at least 1, got 0$"):
            dataclasses.replace(RunConfig(), beam_size=0)

    def test_one_decode_config(self):
        assert generator.DecodeConfig is DecodeConfig
        assert issubclass(RunConfig, DecodeConfig)
        assert [f.name for f in dataclasses.fields(RunConfig)][:6] == DECODING_KEYS


class TestDefaults:
    def test_paper_scale_defaults(self):
        config = RunConfig()
        assert config.seed == 42
        assert config.ttg_cap == 400
        assert config.embed_size == 300
        assert config.hidden_size == 512
        assert config.detector_epochs == 4
        assert config.detector_lr == pytest.approx(3e-5)
        assert config.generator_lr_first == pytest.approx(1e-4)
        assert config.generator_lr_rest == pytest.approx(1e-5)
        assert config.topic_mode == "soft"
        assert config.beam_size == 5
        assert config.stop_threshold == 0.5

    def test_bad_topic_mode_rejected(self):
        with pytest.raises(ValueError, match="topic_mode"):
            RunConfig(topic_mode="fuzzy")


class TestLoadConfig:
    def test_parses_types_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "seed = 7\n"
            "\n"
            "generator_lr_first = 2e-3   # inline comment\n"
            "topic_mode = hard\n"
            "beam_size=1\n",
            encoding="utf-8")
        config = load_config(path)
        assert config.seed == 7
        assert config.generator_lr_first == pytest.approx(2e-3)
        assert config.topic_mode == "hard"
        assert config.beam_size == 1
        assert config.ttg_cap == 400  # untouched default

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "runs" / "a"
        nested.mkdir(parents=True)
        path = nested / "run.cfg"
        path.write_text("vocab_path = ../shared/vocab.txt\n"
                        "detector_checkpoint = det.bin\n"
                        f"schema_path = {tmp_path}/abs.txt\n",
                        encoding="utf-8")
        config = load_config(path)
        assert config.vocab_path == str(nested / ".." / "shared" / "vocab.txt")
        assert config.detector_checkpoint == str(nested / "det.bin")
        assert config.schema_path == str(tmp_path / "abs.txt")  # absolute kept

    def test_a_read_path_key_naming_a_missing_file_names_its_line(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("a\n", encoding="utf-8")
        path = tmp_path / "run.cfg"
        path.write_text("vocab_path = vocab.txt\nschema_path = gone.txt\n"
                        "detector_checkpoint = later.bin\n", encoding="utf-8")
        # a key the caller does not read may name a file that is yet to be written
        assert load_config(path, reads=("vocab_path",)).schema_path == str(tmp_path / "gone.txt")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: 'schema_path' names "
                                             rf"a missing file: {re.escape(str(tmp_path))}"):
            load_config(path, reads=("vocab_path", "schema_path", "embeddings_path"))

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nbogus_key = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2.*bogus_key"):
            load_config(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beam_size = 2\nseed = 1\n# again\nbeam_size = 7\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: 'beam_size' "
                                             r"is already set on line 1$"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = not_a_number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="seed"):
            load_config(path)

    @pytest.mark.parametrize("key", ["detector_epochs", "generator_epochs"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_epoch_count_below_one_names_line(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":2: '{key}' must be at least 1"):
            load_config(path)

    @pytest.mark.parametrize("key", ["embed_size", "hidden_size", "detector_embed_size",
                                     "detector_hidden_size", "ttg_cap", "beam_size",
                                     "max_sentences", "max_sentence_tokens"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_size_or_cap_below_one_names_line(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":2: '{key}' must be at least 1, got {value}"):
            load_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("topic_mode", "bogus", "must be 'soft' or 'hard', got 'bogus'"),
        ("topic_mode", "Soft", "must be 'soft' or 'hard', got 'Soft'"),
        ("stop_threshold", "1.5", r"must lie in \(0, 1\), got 1.5"),
        ("stop_threshold", "1", r"must lie in \(0, 1\), got 1.0"),
        ("stop_threshold", "0", r"must lie in \(0, 1\), got 0.0"),
        ("stop_threshold", "-0.2", r"must lie in \(0, 1\), got -0.2"),
    ])
    def test_decoding_value_out_of_range_names_line(self, tmp_path, key, value, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":2: '{key}' {message}"):
            load_config(path)

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if f.type == "float"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_line_and_key(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":3: '{key}' must be finite"):
            load_config(path)

    def test_lines_end_only_at_universal_newlines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\x0cbogus = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: bad value for 'seed'"):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            load_config(path)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("", encoding="utf-8")
        assert load_config(path) == RunConfig()


class TestFormatConfig:
    def test_every_field_appears_once(self):
        text = format_config(RunConfig())
        lines = text.splitlines()
        names = [line.split(" = ")[0] for line in lines]
        assert names == [f.name for f in dataclasses.fields(RunConfig)]

    def test_round_trips_through_loader(self, tmp_path):
        original = RunConfig(seed=9, topic_mode="hard", generator_lr_first=5e-4,
                             vocab_path="/abs/vocab.txt")
        path = tmp_path / "run.cfg"
        path.write_text(format_config(original) + "\n", encoding="utf-8")
        assert load_config(path) == original

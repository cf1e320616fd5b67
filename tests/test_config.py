"""Config file parsing, defaults, and path resolution."""

import dataclasses

import pytest

from topicsum.config import RunConfig, format_config, load_config


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

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nbogus_key = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2.*bogus_key"):
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

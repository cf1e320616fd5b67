"""Every file the package writes is replaced whole or not at all, and
every text file it reads names the line of a byte that is not UTF-8."""

import re

import numpy as np
import pytest

from topicsum import checkpoint, cli, corpus, fileio, rouge
from topicsum.config import RunConfig, load_config
from topicsum.generator import init_embeddings
from topicsum.text import Vocabulary

OLD = "old contents\n"


class _DiskFull:
    """A file handle that takes half of its first write and then fails, as
    a disk that fills up midway would."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        self._handle.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def _score(f1):
    return rouge.RougeScore(precision=f1, recall=f1, f1=f1)


WRITERS = {
    "save_tensors": lambda path: checkpoint.save_tensors(path, {"w": np.arange(6.0)}),
    "write_log": lambda path: cli._write_log(path, RunConfig(), [{"epoch": 1, "loss": 0.5}]),
    "write_articles": lambda path: corpus.write_articles(
        path, [corpus.RawArticle(title="t", sections=(("history", "Once."),))]),
    "write_label_stats": lambda path: corpus.write_label_stats(path, [(1, "history", 3)]),
    "write_detector_dataset": lambda path: corpus.write_detector_dataset(
        path, [corpus.TopicParagraphExample(topic_index=0, token_ids=(4, 5))]),
    "write_summarization_dataset": lambda path: corpus.write_summarization_dataset(
        path, [corpus.SummarizationExample(title="t", paragraph_tokens=[["a"]],
                                           paragraph_ids=[[4]], abstract_tokens=[["a"]],
                                           abstract_ids=[[4]])]),
    "write_eval_report": lambda path: rouge.write_eval_report(path, rouge.EvalReport(rows=[
        rouge.ExampleScores(rouge_1=_score(0.5), rouge_2=_score(0.25), rouge_l=_score(0.5))])),
    "Vocabulary.save": lambda path: Vocabulary(["alpha", "beta"]).save(path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writer_failing_midway_keeps_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_text(OLD, encoding="utf-8")
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "open", lambda *args, **kwargs: _DiskFull(open(*args, **kwargs)),
                      raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(path)
    assert path.read_text(encoding="utf-8") == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    write(path)                                  # the same call, on a healthy disk
    assert path.read_bytes() != OLD.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("mode, data", [("w", "new\n"), ("wb", b"new\n")])
def test_block_raising_midway_keeps_the_old_file(tmp_path, mode, data):
    path = tmp_path / "out.txt"
    path.write_text(OLD, encoding="utf-8")
    with pytest.raises(RuntimeError, match="midway"):
        with fileio.atomic_write(path, mode) as handle:
            handle.write(data)
            raise RuntimeError("midway")
    assert path.read_text(encoding="utf-8") == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_first_write_creates_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with fileio.atomic_write(tmp_path / "new.txt") as handle:
            handle.write("partial")
            raise RuntimeError("midway")
    assert list(tmp_path.iterdir()) == []


def test_temporary_file_that_cannot_be_made_is_named_as_the_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError) as missing:
        with fileio.atomic_write("nodir/out.txt"):
            pass
    assert str(missing.value) == "[Errno 2] No such file or directory: 'nodir/out.txt'"
    assert list(tmp_path.iterdir()) == []


def test_text_is_utf8(tmp_path):
    path = tmp_path / "out.txt"
    with fileio.atomic_write(path) as handle:
        handle.write("⟨s⟩ naïve\n")
    assert path.read_bytes() == "⟨s⟩ naïve\n".encode("utf-8")


def test_permissions_are_those_of_a_new_file(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("x")
    with fileio.atomic_write(tmp_path / "atomic.txt") as handle:
        handle.write("x")
    assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode


READERS = {
    "load_config": load_config,
    "Vocabulary.load": Vocabulary.load,
    "load_topic_schema": corpus.load_topic_schema,
    "load_articles": corpus.load_articles,
    "load_detector_dataset": lambda path: corpus.load_detector_dataset(path, 2, 10, "v.txt"),
    "load_summarization_dataset": lambda path: corpus.load_summarization_dataset(
        path, Vocabulary(["a"])),
    "evaluate abstracts": cli._read_abstract_lines,
    "init_embeddings": lambda path: init_embeddings(np.zeros((5, 2), np.float32),
                                                    Vocabulary(["a"]), path, []),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_reader_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, read):
    path = tmp_path / "input.txt"
    # "\r\n" and a lone "\r" each end one line
    path.write_bytes(b"first\r\nsecond\rthird \xff\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not UTF-8 at offset 20 "
                                         r"\(invalid start byte\)$"):
        read(path)


def test_bad_byte_past_the_first_decoded_chunk(tmp_path):
    """The handle decodes thousands of lines ahead of the one the reader
    is on; the error still names the bad byte's own line."""
    path = tmp_path / "train.tsv"
    path.write_bytes(b"0\t4 5\n" * 3000 + b"1\t\xe2\x82\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3001: not UTF-8 at offset 18002 "
                                         r"\(invalid continuation byte\)$"):
        corpus.load_detector_dataset(path, 2, 10, "v.txt")


def test_read_lines_splits_as_open_does(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\r\nb\rc\x85d\u2028e\nf".encode("utf-8"))
    with open(path, encoding="utf-8") as plain:
        assert list(fileio.read_lines(path)) == list(plain) == [
            "a\n", "b\n", "c\x85d\u2028e\n", "f"]


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_vocabulary_token_with_a_line_separator_round_trips(tmp_path, separator):
    """Only universal newlines end a vocabulary line, as in every reader."""
    path = tmp_path / "vocab.txt"
    saved = Vocabulary(["alpha", f"be{separator}ta", "gamma"])
    saved.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(saved)
    assert loaded.id_to_token(5) == f"be{separator}ta"
    assert loaded.token_to_id("gamma") == 6

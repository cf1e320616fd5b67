"""Every file the package writes is replaced whole or not at all."""

import numpy as np
import pytest

from topicsum import checkpoint, cli, corpus, detector, fileio, rouge
from topicsum.config import RunConfig
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
    "write_log": lambda path: cli._write_log(path, RunConfig(), ["epoch", "loss"],
                                             [{"epoch": 1, "loss": 0.5}]),
    "write_articles": lambda path: corpus.write_articles(
        path, [corpus.RawArticle(title="t", sections=(("history", "Once."),))]),
    "write_label_stats": lambda path: corpus.write_label_stats(path, [(1, "history", 3)]),
    "write_detector_dataset": lambda path: corpus.write_detector_dataset(
        path, [corpus.TopicParagraphExample(topic_index=0, token_ids=(4, 5))]),
    "write_summarization_dataset": lambda path: corpus.write_summarization_dataset(
        path, [corpus.SummarizationExample(title="t", paragraph_tokens=[["a"]],
                                           paragraph_ids=[[4]], abstract_tokens=[["a"]],
                                           abstract_ids=[[4]])]),
    "write_detector_report": lambda path: detector.write_detector_report(
        path, detector.DetectorMetrics(accuracy=0.5, n_examples=2, per_topic=[
            detector.TopicMetrics(topic_index=0, precision=0.5, recall=1.0, support=1)]),
        ["History"]),
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

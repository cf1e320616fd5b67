"""Tokenization, sentence splitting, and vocabulary behavior."""

import re

import numpy as np
import pytest

from topicsum.text import (
    BOS_ID,
    DEFAULT_ABBREVIATIONS,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("The Cat sat.") == ["the", "cat", "sat", "."]

    def test_punctuation_runs_become_single_tokens(self):
        assert tokenize("wait -- what?!") == ["wait", "-", "-", "what", "?", "!"]

    def test_digits_and_apostrophes(self):
        assert tokenize("It's 1984, isn't it?") == [
            "it", "'", "s", "1984", ",", "isn", "'", "t", "it", "?"]

    def test_empty_and_whitespace_only(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_underscores_stay_inside_words(self):
        assert tokenize("snake_case id") == ["snake_case", "id"]


class TestSplitSentences:
    def test_splits_on_terminators_before_capitals(self):
        text = "The fox ran. It was fast! Was it seen? Nobody knows."
        assert split_sentences(text) == [
            "The fox ran.", "It was fast!", "Was it seen?", "Nobody knows."]

    def test_keeps_abbreviations_together(self):
        text = "Dr. Smith arrived at 3 p.m. sharp. Everyone cheered."
        parts = split_sentences(text)
        assert parts[0] == "Dr. Smith arrived at 3 p.m. sharp."
        assert parts[1] == "Everyone cheered."

    def test_single_letter_initials_do_not_split(self):
        assert split_sentences("J. R. Hartley wrote it. It sold well.") == [
            "J. R. Hartley wrote it.", "It sold well."]

    def test_digits_can_open_a_sentence(self):
        assert split_sentences("It ended in 1905. 300 people left.") == [
            "It ended in 1905.", "300 people left."]

    def test_lowercase_continuation_does_not_split(self):
        # the terminator is followed by a lowercase word, so no boundary
        assert split_sentences("three tonnes approx. were sold that day") == [
            "three tonnes approx. were sold that day"]

    def test_no_terminator_returns_whole_text(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_empty_input(self):
        assert split_sentences("") == []
        assert split_sentences("   ") == []

    def test_guard_is_the_default_abbreviations(self):
        assert "corp" in DEFAULT_ABBREVIATIONS and "steam" not in DEFAULT_ABBREVIATIONS
        assert split_sentences("It ran on steam. The turbines spun.") == [
            "It ran on steam.", "The turbines spun."]
        assert split_sentences("It ran for Acme Corp. The turbines spun.") == [
            "It ran for Acme Corp. The turbines spun."]

    def test_question_and_exclamation_ignore_abbreviation_guard(self):
        # the guard applies to periods only
        assert split_sentences("Was it Dr! Yes.") == ["Was it Dr!", "Yes."]

    def test_no_text_is_dropped(self):
        text = "One two. Three four! Five six? Seven."
        parts = split_sentences(text)
        assert " ".join(parts) == text


    @pytest.mark.parametrize("text, sentences", [
        ("Dr. No left. Mr. Big stayed.  ", ["Dr. No left.", "Mr. Big stayed."]),
        ("Wait!! Really?? Yes... Fine.", ["Wait!!", "Really??", "Yes...", "Fine."]),
        ("A. B. C. Etc. Done.\n\t ", ["A. B. C. Etc. Done."]),
        ("It ended.\n\n 3 more. ?! .", ["It ended.", "3 more. ?! ."]),
        (". A", [".", "A"]),
        ("Go! \n", ["Go!"]),
        ("Stop.   ", ["Stop."]),
        ("!! ?? ..", ["!! ?? .."]),
        (" \n\t", []),
    ], ids=["abbreviations", "repeated_marks", "initials", "blank_lines", "leading_mark",
            "trailing_newline", "trailing_spaces", "marks_only", "whitespace_only"])
    def test_no_sentence_is_empty(self, text, sentences):
        """Each sentence holds its punctuation mark and the tail is kept
        only when it is non-empty, so no sentence is empty."""
        parts = split_sentences(text)
        assert parts == sentences
        assert all(part and part == part.strip() for part in parts)
        assert " ".join(parts).split() == text.split()


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        vocab = Vocabulary([])
        assert vocab.token_to_id("<pad>") == PAD_ID == 0
        assert vocab.token_to_id("<unk>") == UNK_ID == 1
        assert vocab.token_to_id("<bos>") == BOS_ID == 2
        assert vocab.token_to_id("<eos>") == EOS_ID == 3
        assert len(vocab) == 4

    def test_build_orders_by_count_then_token(self):
        corpus = [["cherry"] * 5, ["banana"] * 3, ["apple"] * 3]
        vocab = Vocabulary.build(corpus, cap=10)
        assert vocab.id_to_token(4) == "cherry"   # highest count first
        assert vocab.id_to_token(5) == "apple"    # count ties break alphabetically
        assert vocab.id_to_token(6) == "banana"

    def test_cap_keeps_most_frequent(self):
        corpus = [[f"w{i:02d}"] * (100 - i) for i in range(20)]
        vocab = Vocabulary.build(corpus, cap=10)
        assert len(vocab) == 10
        assert vocab.token_to_id("w00") == 4
        assert vocab.token_to_id("w05") == 9
        assert vocab.token_to_id("w06") == UNK_ID  # truncated away

    def test_cap_below_reserved_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build([["a"]], cap=3)

    def test_encode_decode_round_trip_for_known_tokens(self):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        tokens = ["alpha", "gamma", "beta", "alpha"]
        ids = vocab.encode(tokens)
        assert vocab.decode(ids) == tokens

    def test_unknown_tokens_become_unk(self):
        vocab = Vocabulary(["known"])
        assert vocab.encode(["known", "mystery"]) == [vocab.token_to_id("known"), UNK_ID]
        assert vocab.decode([UNK_ID]) == ["<unk>"]

    def test_contains(self):
        vocab = Vocabulary(["here"])
        assert "here" in vocab
        assert "<pad>" in vocab
        assert "gone" not in vocab

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["dup", "dup"])

    def test_reserved_token_in_word_list_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["<unk>"])

    def test_decode_out_of_range_raises(self):
        vocab = Vocabulary(["only"])
        with pytest.raises(IndexError):
            vocab.decode([99])
        with pytest.raises(IndexError):
            vocab.id_to_token(-1)

    def test_save_load_round_trip(self, tmp_path):
        vocab = Vocabulary(["zebra", "yak", "xerus"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert len(loaded) == len(vocab)
        for i in range(len(vocab)):
            assert loaded.id_to_token(i) == vocab.id_to_token(i)

    def test_save_writes_one_token_per_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        Vocabulary(["solo"]).save(path)
        assert path.read_text(encoding="utf-8") == "\n".join(
            RESERVED_TOKENS + ("solo",)) + "\n"

    @pytest.mark.parametrize("token", ["a\rb", "a\nb", "a\r\nb", "\n"])
    def test_save_refuses_a_token_with_a_line_break(self, tmp_path, token):
        path = tmp_path / "vocab.txt"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"token 5 holds a line break: {re.escape(repr(token))}"):
            Vocabulary(["first", token, "last"]).save(path)
        assert path.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]

    def test_save_load_round_trips_unusual_tokens(self, tmp_path):
        """Tabs, spaces, other control characters and non-ASCII tokens keep
        their ids; only "\\n" and "\\r" end a line."""
        tokens = ["tab\there", " lead", "trail ", "\x00", "\x0b\x0c", "\x1c\x1d\x1e",
                  "\x85", "\u2028\u2029", "naïve", "日本", "last"]
        path = tmp_path / "vocab.txt"
        Vocabulary(tokens).save(path)
        loaded = Vocabulary.load(path)
        assert [loaded.id_to_token(i) for i in range(len(loaded))] == \
            list(RESERVED_TOKENS) + tokens

    def test_load_rejects_corrupt_reserved_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<unk>\nwrong\n<eos>\nword\n", encoding="utf-8")
        with pytest.raises(ValueError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("words, line, token", [(["alpha", "beta", "alpha"], 7, "alpha"),
                                                    (["<unk>", "beta"], 5, "<unk>")],
                             ids=["word", "reserved"])
    def test_load_names_the_line_of_a_duplicate_token(self, tmp_path, words, line, token):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(RESERVED_TOKENS + tuple(words)) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "
                                             f"duplicate token '{re.escape(token)}'$"):
            Vocabulary.load(path)

    def test_build_deterministic_across_corpus_order(self):
        rng = np.random.default_rng(9)
        draws = [f"t{int(i)}" for i in rng.integers(0, 50, size=400)]
        forward = Vocabulary.build([draws], cap=30)
        backward = Vocabulary.build([list(reversed(draws))], cap=30)
        assert [forward.id_to_token(i) for i in range(len(forward))] == [
            backward.id_to_token(i) for i in range(len(backward))]

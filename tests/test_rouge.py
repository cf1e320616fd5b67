"""ROUGE metrics against hand-counted overlaps, dedup, and report files."""

import numpy as np
import pytest

from topicsum.rouge import (
    DEDUP_RATIO,
    EvalReport,
    RougeScore,
    _lcs_length,
    dedup_sentences,
    evaluate_corpus,
    rouge_l,
    rouge_n,
    write_eval_report,
)


class TestRougeN:
    def test_identical_sequences_score_one(self):
        tokens = ["the", "cat", "sat", "down"]
        for n in (1, 2):
            score = rouge_n(tokens, tokens, n)
            assert score.precision == score.recall == score.f1 == 1.0

    def test_disjoint_sequences_score_zero(self):
        score = rouge_n(["a", "b"], ["c", "d"], 1)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_unigram_counts_by_hand(self):
        # candidate: [the, cat, the]; reference: [the, dog]
        # clipped matches: "the" appears twice in candidate, once in reference -> 1
        score = rouge_n(["the", "cat", "the"], ["the", "dog"], 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)
        assert score.f1 == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))

    def test_bigram_counts_by_hand(self):
        # candidate bigrams: (a b), (b c); reference bigrams: (b c), (c d)
        score = rouge_n(["a", "b", "c"], ["b", "c", "d"], 2)
        assert score.precision == pytest.approx(1 / 2)
        assert score.recall == pytest.approx(1 / 2)
        assert score.f1 == pytest.approx(1 / 2)

    def test_clipping_limits_repeats(self):
        # "a" four times in candidate, twice in reference: clipped to 2
        score = rouge_n(["a"] * 4, ["a", "a", "b"], 1)
        assert score.precision == pytest.approx(2 / 4)
        assert score.recall == pytest.approx(2 / 3)

    def test_empty_sides(self):
        assert rouge_n([], ["a"], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], [], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n([], [], 1) == RougeScore(0.0, 0.0, 0.0)

    def test_short_sequences_have_no_bigrams(self):
        assert rouge_n(["a"], ["a"], 2) == RougeScore(0.0, 0.0, 0.0)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)


class TestRougeL:
    def test_identical_sequences(self):
        tokens = ["w", "x", "y"]
        assert rouge_l(tokens, tokens).f1 == 1.0

    def test_subsequence_by_hand(self):
        # LCS of [a, b, c, d, e] and [a, x, c, e] is [a, c, e], length 3
        score = rouge_l(["a", "b", "c", "d", "e"], ["a", "x", "c", "e"])
        assert score.precision == pytest.approx(3 / 5)
        assert score.recall == pytest.approx(3 / 4)
        f1 = 2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4)
        assert score.f1 == pytest.approx(f1)

    def test_four_of_five_overlap_scores_point_eight(self):
        # equal lengths with an LCS of 4 out of 5: P = R = F1 = 0.8
        score = rouge_l(["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "x"])
        assert score.f1 == pytest.approx(0.8)

    def test_order_matters_for_lcs(self):
        # same multiset, reversed order: LCS is 1
        score = rouge_l(["a", "b", "c"], ["c", "b", "a"])
        assert score.f1 == pytest.approx(1 / 3)

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_l(["a"], []) == RougeScore(0.0, 0.0, 0.0)

    def test_bit_vector_lcs_equals_the_dynamic_program(self):
        """`_lcs_length` against the textbook DP over seeded random pairs:
        empty sides, one-word vocabularies, repeated tokens, and references
        longer than a machine word."""
        def dp_lcs(a, b):
            previous = [0] * (len(b) + 1)
            for token_a in a:
                current = [0]
                for j, token_b in enumerate(b, start=1):
                    current.append(previous[j - 1] + 1 if token_a == token_b
                                   else max(previous[j], current[j - 1]))
                previous = current
            return previous[-1]

        rng = np.random.default_rng(26)
        cases = [([], []), ([], ["a"]), (["a"], []), (["a"] * 5, ["a"] * 3),
                 (["a", "b"] * 40, ["b", "a"] * 50)]
        for _ in range(600):
            words = [f"w{i}" for i in range(int(rng.choice([1, 2, 3, 10, 500])))]
            a, b = ([str(w) for w in rng.choice(words, size=int(rng.integers(0, 90)))]
                    for _ in range(2))
            cases.append((a, b))
        for a, b in cases:
            assert _lcs_length(a, b) == dp_lcs(a, b), (a, b)

    def test_matches_brute_force_on_random_pairs(self):
        # oracle: recursive LCS with memoization, written independently
        from functools import lru_cache

        def brute_lcs(a, b):
            @lru_cache(maxsize=None)
            def rec(i, j):
                if i == len(a) or j == len(b):
                    return 0
                if a[i] == b[j]:
                    return 1 + rec(i + 1, j + 1)
                return max(rec(i + 1, j), rec(i, j + 1))
            return rec(0, 0)

        rng = np.random.default_rng(12)
        alphabet = list("abcde")
        for _ in range(25):
            a = tuple(rng.choice(alphabet, size=int(rng.integers(0, 10))))
            b = tuple(rng.choice(alphabet, size=int(rng.integers(0, 10))))
            expected = brute_lcs(a, b)
            got = rouge_l(list(a), list(b))
            if expected == 0:
                assert got.f1 == 0.0
            else:
                assert got.precision == pytest.approx(expected / len(a))
                assert got.recall == pytest.approx(expected / len(b))


class TestDedup:
    def test_drops_later_near_duplicate(self):
        first = ["the", "fox", "ran", "fast"]
        duplicate = ["the", "fox", "ran", "away"]  # 3 of 4 shared: ratio 0.75
        distinct = ["owls", "hunt", "at", "night"]
        kept = dedup_sentences([first, duplicate, distinct])
        assert kept == [first, distinct]

    def test_ratio_uses_shorter_sentence(self):
        long = ["a", "b", "c", "d", "e", "f", "g", "h"]
        short = ["a", "b", "c"]  # all 3 shared, ratio 3/3 = 1.0 > 0.5
        assert dedup_sentences([long, short]) == [long]

    def test_exact_threshold_is_kept(self):
        first = ["a", "b", "c", "d"]
        second = ["a", "b", "x", "y"]  # 2 of 4 shared: ratio exactly 0.5
        assert DEDUP_RATIO == 0.5
        kept = dedup_sentences([first, second])
        assert kept == [first, second]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        words = list("abcdefghij")
        sentences = [list(rng.choice(words, size=5)) for _ in range(12)]
        once = dedup_sentences(sentences)
        twice = dedup_sentences(once)
        assert once == twice

    def test_empty_input(self):
        assert dedup_sentences([]) == []


class TestEvaluateCorpus:
    def test_scores_are_per_example_and_averaged(self):
        gold = [[["a", "b", "c"]], [["x", "y"]]]
        generated = [[["a", "b", "c"]], [["p", "q"]]]
        report = evaluate_corpus(generated, gold)
        assert report.n_examples == 2
        assert report.rows[0].rouge_1.f1 == pytest.approx(1.0)
        assert report.rows[1].rouge_1.f1 == 0.0
        assert report.mean_rouge_1 == pytest.approx(0.5)
        assert report.mean_rouge_l == pytest.approx(0.5)

    def test_dedup_applies_to_generated_side_only(self):
        gold = [[["a", "b"], ["a", "b"]]]  # reference keeps its repeat
        generated = [[["a", "b"], ["a", "b"]]]
        report = evaluate_corpus(generated, gold)
        # generated flattens to [a, b] after dedup, gold stays [a, b, a, b]
        row = report.rows[0]
        assert row.rouge_1.precision == pytest.approx(1.0)
        assert row.rouge_1.recall == pytest.approx(0.5)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([[["a"]]], [])

    def test_empty_corpus(self):
        report = evaluate_corpus([], [])
        assert report.n_examples == 0
        assert report.mean_rouge_1 == 0.0


class TestReportFile:
    def test_layout(self, tmp_path):
        gold = [[["a", "b"]], [["c"]]]
        generated = [[["a", "b"]], [["c"]]]
        report = evaluate_corpus(generated, gold)
        path = tmp_path / "eval.tsv"
        write_eval_report(path, report)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "example\trouge1_f1\trouge2_f1\trougeL_f1"
        assert lines[1].startswith("0\t1.000000")
        assert lines[2].startswith("1\t1.000000")
        assert lines[3].startswith("MEAN\t1.000000")
        assert len(lines) == 4

    def test_empty_report_still_has_mean(self, tmp_path):
        path = tmp_path / "eval.tsv"
        write_eval_report(path, EvalReport(rows=[]))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("MEAN\t0.000000")

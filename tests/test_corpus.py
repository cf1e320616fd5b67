"""Article IO, topic schemas, dataset construction, and split hashing."""

import logging
import re
import sys

import numpy as np
import pytest

from topicsum.corpus import (
    _TAG_RE,
    _URL_RE,
    DatasetSplits,
    RawArticle,
    SummarizationExample,
    Topic,
    TopicParagraphExample,
    TopicSchema,
    article_token_sequences,
    build_detector_dataset,
    bundled_schema_path,
    iter_paragraphs,
    label_frequency_stats,
    load_articles,
    load_detector_dataset,
    load_summarization_dataset,
    load_topic_schema,
    split_bucket,
    strip_markup,
    write_articles,
    write_detector_dataset,
    write_label_stats,
    write_summarization_dataset,
)
from topicsum.synthetic import toy_detector_articles, toy_schema
from topicsum.text import UNK_ID, Vocabulary, tokenize

# titles whose UTF-8 runs one to four bytes a character, one holding the
# '#' that joins title and index, and one long enough to span many words
HAND_TITLES = ("a#b", "Zürich", "東京", "🦊 fox", ("Große Röhre #7 " * 14)[:200])
SPLIT_SEEDS = (0, 42, -1, 2**64 + 5)


def make_article(title="Acme Corp", noise=False):
    sections = [
        ("History", "Founded in 1901 by two brothers.\n\nIt moved to Ohio in 1920."),
        ("Products", "It sells anvils and rockets."),
        ("Weird trivia", "A section label no schema allocates."),
    ]
    if noise:
        sections.append(("History", "This site uses cookie banners everywhere."))
    return RawArticle(title=title, sections=tuple(sections))


def make_schema():
    return TopicSchema(domain="test", topics=[
        Topic(name="History", labels=frozenset({"history"})),
        Topic(name="Product", labels=frozenset({"products"})),
    ])


class TestArticlesIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        originals = [make_article("A"), make_article("B", noise=True)]
        write_articles(path, originals)
        assert load_articles(path) == originals

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        write_articles(path, [make_article()])
        path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        assert len(load_articles(path)) == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text('{"title": "A", "sections": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_articles(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text('{"title": "A"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="sections"):
            load_articles(path)

    def test_malformed_section_rejected(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text('{"title": "A", "sections": [["only-label"]]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="label, text"):
            load_articles(path)

    @pytest.mark.parametrize("record, message", [
        (r'{"title": "entity3\ud800", "sections": []}',
         r"'title' holds a lone surrogate '\\ud800', which UTF-8 cannot encode"),
        (r'{"title": "A", "sections": [["hab\udfffitat", "x"]]}',
         r"a section label holds a lone surrogate '\\udfff', which UTF-8 cannot encode"),
        (r'{"title": "A", "sections": [["diet", "ok"], ["habitat", "a \udc80 b"]]}',
         r"a section text holds a lone surrogate '\\udc80', which UTF-8 cannot encode"),
        (r'{"title": "A", "sections": [["diet", "\ud83e\ud83e\udd8a"]]}',
         r"a section text holds a lone surrogate '\\ud83e', which UTF-8 cannot encode"),
    ], ids=["title", "label", "text", "high_before_a_pair"])
    def test_lone_surrogate_refused_naming_its_line(self, tmp_path, record, message):
        """JSON can escape half of a surrogate pair, which no UTF-8 writer
        takes; it is refused where it is read, not when an output is written."""
        path = tmp_path / "articles.jsonl"
        path.write_text('{"title": "A", "sections": []}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {message}$"):
            load_articles(path)

    def test_escaped_surrogate_pair_loads_as_its_character(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(r'{"title": "\ud83e\udd8a fox", "sections": [["diet", "\uD83E\uDD8A"]]}'
                        "\n", encoding="utf-8")
        assert load_articles(path) == [RawArticle("🦊 fox", (("diet", "🦊"),))]

    @pytest.mark.parametrize("record, message", [
        ('{"title": "", "sections": []}', "'title' must be a non-empty string"),
        ('{"title": "A", "sections": 5}', r"'sections' must be a list of \[label, text\] pairs"),
        ('{"title": "A", "sections": null}',
         r"'sections' must be a list of \[label, text\] pairs"),
    ], ids=["empty_title", "sections_number", "sections_null"])
    def test_malformed_record_names_its_line(self, tmp_path, record, message):
        path = tmp_path / "articles.jsonl"
        path.write_text('{"title": "A", "sections": []}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {message}$"):
            load_articles(path)


class TestTopicSchema:
    def test_indices_and_counts(self):
        schema = make_schema()
        assert schema.noise_index == 2
        assert schema.n_classes == 3
        assert schema.topic_names() == ["History", "Product"]
        assert schema.topic_names(include_noise=True) == ["History", "Product", "NOISE"]

    def test_label_lookup_normalizes(self):
        schema = make_schema()
        assert schema.topic_of_label("History") == 0
        assert schema.topic_of_label("  PRODUCTS ") == 1
        assert schema.topic_of_label("unknown") is None

    def test_duplicate_allocation_rejected(self):
        with pytest.raises(ValueError, match="more than one topic"):
            TopicSchema(domain="d", topics=[
                Topic(name="A", labels=frozenset({"shared"})),
                Topic(name="B", labels=frozenset({"shared"})),
            ])

    def test_default_noise_indicators(self):
        schema = make_schema()
        assert schema.is_noise_text("Accept our cookie policy")
        assert schema.is_noise_text('<a href="x">link</a>')
        assert schema.is_noise_text("As shown in [ 3 ] above")
        assert schema.is_noise_text("citation[12]here")
        assert not schema.is_noise_text("A perfectly clean paragraph.")


class TestSchemaFiles:
    def test_parse_with_tiers(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text(
            "# comment line\n"
            "domain: demo\n"
            "Alpha: one@10, two@20\n"
            "Beta: three, four@30\n"
            "noise: /spam/, /eggs/\n",
            encoding="utf-8")
        schema = load_topic_schema(path, n_t=20)
        assert schema.domain == "demo"
        assert schema.topics[0].labels == frozenset({"one", "two"})
        # tier 30 exceeds n_t=20, so "four" is dropped; untiered "three" stays
        assert schema.topics[1].labels == frozenset({"three"})
        assert schema.is_noise_text("SPAM here")
        assert not schema.is_noise_text("cookie")  # defaults replaced

    def test_n_t_widens_allocation(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("Alpha: one@10, two@20, three@30\n", encoding="utf-8")
        assert load_topic_schema(path, n_t=10).topics[0].labels == frozenset({"one"})
        assert load_topic_schema(path, n_t=30).topics[0].labels == frozenset(
            {"one", "two", "three"})

    def test_n_t_of_zero_keeps_the_unmarked_labels_and_below_zero_is_refused(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("Alpha: one@10, two\nBeta: three@30\n", encoding="utf-8")
        narrow = load_topic_schema(path, n_t=0)
        assert [topic.labels for topic in narrow.topics] == [frozenset({"two"}), frozenset()]
        # the topics, which train and generate read, are the same at every tier
        assert narrow.topic_names() == load_topic_schema(path, n_t=30).topic_names()
        with pytest.raises(ValueError, match=r"^'n_t' must be at least 0, got -1$"):
            load_topic_schema(path, n_t=-1)

    def test_empty_label_entry_skipped(self, tmp_path):
        path = tmp_path / "demo.txt"
        path.write_text("Alpha: a, , b,\n", encoding="utf-8")
        assert load_topic_schema(path).topics[0].labels == frozenset({"a", "b"})

    def test_domain_defaults_to_stem(self, tmp_path):
        path = tmp_path / "birds.txt"
        path.write_text("Alpha: one\n", encoding="utf-8")
        assert load_topic_schema(path).domain == "birds"

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no separator here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_topic_schema(path)
        path.write_text("# only comments\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no topics"):
            load_topic_schema(path)
        path.write_text("noise: /(/\nAlpha: one\n", encoding="utf-8")
        with pytest.raises(ValueError, match="noise pattern"):
            load_topic_schema(path)
        path.write_text("Alpha: one\n: two\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:2: empty topic name$"):
            load_topic_schema(path)

    @pytest.mark.parametrize("payload", ["/tracking/, banner", "cookie, href", "", "/a/ /b/",
                                         "/a/,", ", /a/"],
                             ids=["bare_entry", "no_regex", "empty", "no_comma",
                                  "trailing_comma", "leading_comma"])
    def test_noise_line_of_anything_but_regex_entries_refused(self, tmp_path, payload):
        """A noise line's entries all load, or the line is refused: none is
        dropped, and an empty line does not stand for the defaults."""
        path = tmp_path / "noise.txt"
        path.write_text(f"Alpha: one\nnoise: {payload}\n", encoding="utf-8")
        message = (f"{path}:2: a noise line lists /regex/ entries split by commas, "
                   f"got '{payload}'")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_topic_schema(path)

    def test_noise_entry_may_hold_a_comma_and_an_escaped_slash(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("noise: /a,b/ , /c\\/d/\nAlpha: one\n", encoding="utf-8")
        schema = load_topic_schema(path)
        assert [p.pattern for p in schema.noise_patterns] == ["a,b", r"c\/d"]
        assert schema.is_noise_text("A,B") and schema.is_noise_text("c/d")

    def test_topic_named_twice_refused_ignoring_case(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("Alpha: one\nBeta: two\nalpha: three\n", encoding="utf-8")
        message = f"{path}:3: topic 'alpha' is already named on line 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_topic_schema(path)

    def test_duplicate_label_across_topics_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("Alpha: one\nBeta: one\n", encoding="utf-8")
        with pytest.raises(ValueError, match="already allocated"):
            load_topic_schema(path)

    def test_bundled_schemas_load(self):
        for domain, n_topics in (("company", 4), ("film", 5), ("animal", 4)):
            schema = load_topic_schema(bundled_schema_path(domain))
            assert schema.domain == domain
            assert len(schema.topics) == n_topics
            assert schema.is_noise_text("cookie notice")

    def test_bundled_company_tiers(self):
        path = bundled_schema_path("company")
        narrow = load_topic_schema(path, n_t=10)
        wide = load_topic_schema(path, n_t=30)
        assert "company history" not in narrow.topics[0].labels
        assert "company history" in load_topic_schema(path, n_t=20).topics[0].labels
        assert "ownership" in wide.topics[0].labels

    def test_unknown_bundled_domain(self):
        with pytest.raises(ValueError, match="music"):
            bundled_schema_path("music")


class TestLabelStats:
    def test_ranked_by_count_then_label(self):
        articles = [
            RawArticle("A", (("History", "x"), ("Cast", "x"))),
            RawArticle("B", (("history", "x"), ("awards", "x"))),
        ]
        rows = label_frequency_stats(articles)
        assert rows[0] == (1, "history", 2)
        assert rows[1] == (2, "awards", 1)
        assert rows[2] == (3, "cast", 1)

    def test_write_format(self, tmp_path):
        path = tmp_path / "stats.tsv"
        write_label_stats(path, [(1, "history", 2)])
        assert path.read_text(encoding="utf-8") == "1\thistory\t2\n"


class TestParagraphExtraction:
    def test_strip_markup_removes_urls_and_tags(self):
        cleaned = strip_markup("see https://example.com and <b>bold</b> text")
        assert "https" not in cleaned and "<b>" not in cleaned
        assert "bold" in cleaned and "text" in cleaned

    def test_iter_paragraphs_splits_and_indexes(self):
        article = make_article()
        triples = list(iter_paragraphs(article))
        assert [t[0] for t in triples] == [0, 1, 2, 3]
        assert triples[0][1] == "History"
        assert triples[1][2].startswith("It moved")
        assert triples[2][1] == "Products"

    def test_empty_blocks_skipped(self):
        article = RawArticle("T", (("A", "\n\n  \n\n real text"),))
        triples = list(iter_paragraphs(article))
        assert len(triples) == 1
        assert triples[0] == (0, "A", "real text")

    def test_strip_markup_equals_both_substitutions_on_fuzzed_blocks(self):
        """Blocks built from markup fragments, near misses (`htt`, `ww`,
        `WWW.`) and plain text: with or without anything to strip, the
        result is that of the URL substitution and then the tag one."""
        pieces = ["<", ">", "http://", "https://", "HTTP://", "www.", "WWW.", "htt", "ww",
                  "/", "a", "b", "Z", "é", " ", "\n"]
        rng = np.random.default_rng(34)
        clean = 0
        for _ in range(20_000):
            picks = rng.integers(0, len(pieces), rng.integers(0, 24))
            block = "".join(pieces[i] for i in picks)
            want = _TAG_RE.sub(" ", _URL_RE.sub(" ", block))
            assert strip_markup(block) == want, block
            clean += want == block
        assert 2_000 < clean < 18_000    # both kinds of block are drawn often


class TestSplitHashing:
    def test_deterministic_and_bounded(self):
        for title in ("Acme", "Globex", "Initech"):
            for index in range(5):
                a = split_bucket(title, index, seed=42)
                b = split_bucket(title, index, seed=42)
                assert a == b
                assert 0 <= a < 10

    def test_seed_changes_assignment(self):
        buckets_a = [split_bucket(f"t{i}", 0, seed=1) for i in range(50)]
        buckets_b = [split_bucket(f"t{i}", 0, seed=2) for i in range(50)]
        assert buckets_a != buckets_b

    @staticmethod
    def fnv1a64(data: bytes, seed: int) -> int:
        value = 0xCBF29CE484222325 ^ (seed % 2**64)
        for byte in data:
            value = ((value ^ byte) * 0x100000001B3) % 2**64
        return value

    @pytest.mark.parametrize("seed", SPLIT_SEEDS + (2**70,))
    def test_bucket_is_seeded_fnv1a_of_title_and_index(self, seed):
        """The bucket is 64-bit FNV-1a, its offset basis XORed with the
        seed's low 64 bits, over the UTF-8 of `title#index`, modulo 10."""
        for title in HAND_TITLES:
            for index in [*range(151), 999, 1000, 12_345]:
                want = self.fnv1a64(f"{title}#{index}".encode("utf-8"), seed) % 10
                assert split_bucket(title, index, seed) == want, (title, index)

    def test_distribution_roughly_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(10, dtype=int)
        for i in range(5000):
            counts[split_bucket(f"article {int(rng.integers(1e9))}", i % 7, seed=42)] += 1
        # each bucket holds about 500 of 5000; allow wide slack
        assert counts.min() > 350 and counts.max() < 650


class TestDetectorDataset:
    def test_labels_splits_and_noise_precedence(self):
        articles = [make_article(f"Art {i}", noise=True) for i in range(30)]
        schema = make_schema()
        vocab = Vocabulary.build(article_token_sequences(articles), cap=200)
        splits = build_detector_dataset(articles, schema, vocab, seed=42)
        total = len(splits.train) + len(splits.valid) + len(splits.test)
        # 4 allocated paragraphs per article ("Weird trivia" is dropped)
        assert total == 30 * 4
        assert len(splits.train) > len(splits.valid) > 0
        assert len(splits.test) > 0
        all_examples = splits.train + splits.valid + splits.test
        noise_count = sum(1 for ex in all_examples if ex.topic_index == schema.noise_index)
        # the cookie paragraph sits under a History label but is NOISE
        assert noise_count == 30
        assert {ex.topic_index for ex in all_examples} == {0, 1, schema.noise_index}

    @staticmethod
    def splits_by_bucket(articles, schema, vocab, seed):
        """The splits built paragraph by paragraph, each placed by
        `split_bucket` of its title and index."""
        splits = DatasetSplits(train=[], valid=[], test=[])
        for article in articles:
            for index, label, text in iter_paragraphs(article):
                topic = (schema.noise_index if schema.is_noise_text(text)
                         else schema.topic_of_label(label))
                tokens = tokenize(text)
                if topic is None or not tokens:
                    continue
                bucket = split_bucket(article.title, index, seed)
                split = splits.train if bucket < 8 else splits.valid if bucket == 8 else splits.test
                split.append(TopicParagraphExample(topic, tuple(vocab.encode(tokens))))
        return splits

    @pytest.mark.parametrize("seed", SPLIT_SEEDS)
    def test_each_paragraph_lands_in_its_split_bucket(self, seed):
        """Every paragraph of the toy articles, and of hand-made titles at
        indexes 0-150 (each paragraph its own token, so that each example
        is told apart), sits in the split `split_bucket` gives it."""
        toy = toy_detector_articles(120, 0)
        hand = [RawArticle(title, (("habitat", "\n\n".join(f"t{a}p{i}" for i in range(100))),
                                   ("diet", "\n\n".join(f"t{a}p{i}" for i in range(100, 151)))))
                for a, title in enumerate(HAND_TITLES)]
        for articles in (toy, hand):
            vocab = Vocabulary.build(article_token_sequences(articles))
            want = self.splits_by_bucket(articles, toy_schema(), vocab, seed)
            assert build_detector_dataset(articles, toy_schema(), vocab, seed=seed) == want
        # every hand-made paragraph is kept, each a different example
        assert len(set(want.train + want.valid + want.test)) == 151 * len(HAND_TITLES)

    def test_same_seed_reproduces_exactly(self):
        articles = [make_article(f"Art {i}") for i in range(10)]
        schema = make_schema()
        vocab = Vocabulary.build(article_token_sequences(articles), cap=100)
        first = build_detector_dataset(articles, schema, vocab, seed=7)
        second = build_detector_dataset(articles, schema, vocab, seed=7)
        assert first.train == second.train
        assert first.valid == second.valid
        assert first.test == second.test

    def test_dataset_file_round_trip(self, tmp_path):
        articles = [make_article(f"Art {i}") for i in range(5)]
        schema = make_schema()
        vocab = Vocabulary.build(article_token_sequences(articles), cap=100)
        splits = build_detector_dataset(articles, schema, vocab)
        path = tmp_path / "train.tsv"
        write_detector_dataset(path, splits.train)
        assert load_detector_dataset(path, schema.n_classes, len(vocab), "v.txt") == splits.train

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("0\t1 2\n\n2\t3\n", encoding="utf-8")
        assert load_detector_dataset(path, 3, 10, "v.txt") == [
            TopicParagraphExample(topic_index=0, token_ids=(1, 2)),
            TopicParagraphExample(topic_index=2, token_ids=(3,))]

    def test_load_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1 2 x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            load_detector_dataset(path, n_classes=3, vocab_size=10, vocab_path="cut/vocab.txt")

    @pytest.mark.parametrize("line, message", [
        ("3\t1 2", "topic 3 outside"),
        ("-1\t1 2", "topic -1 outside"),
        ("0\t1 10 2", r"token id 10 outside \[0, 10\) of the vocabulary cut/vocab.txt$"),
        ("0\t1 -2", r"token id -2 outside \[0, 10\) of the vocabulary cut/vocab.txt$"),
    ])
    def test_load_rejects_out_of_range_values(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"2\t0 9\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.tsv:2: {message}"):
            load_detector_dataset(path, n_classes=3, vocab_size=10, vocab_path="cut/vocab.txt")


class TestSummarizationDataset:
    def write_record(self, path, title="Topic A", paragraphs="the fox ran ⟨p⟩ it slept",
                     abstract="the fox ran . ⟨s⟩ it slept ."):
        path.write_text(f"{title}\t{paragraphs}\t{abstract}\n", encoding="utf-8")

    def test_load_with_sentence_markers(self, tmp_path):
        path = tmp_path / "data.tsv"
        self.write_record(path)
        vocab = Vocabulary(["the", "fox", "ran", "it", "slept", "."])
        examples = load_summarization_dataset(path, vocab)
        assert len(examples) == 1
        ex = examples[0]
        assert ex.title == "Topic A"
        assert ex.paragraph_tokens == [["the", "fox", "ran"], ["it", "slept"]]
        assert ex.abstract_tokens == [["the", "fox", "ran", "."], ["it", "slept", "."]]
        assert ex.paragraph_ids[0] == vocab.encode(["the", "fox", "ran"])

    def test_rule_based_sentence_fallback(self, tmp_path):
        path = tmp_path / "data.tsv"
        self.write_record(path, abstract="The fox ran. It slept.")
        vocab = Vocabulary(["the", "fox", "ran", "it", "slept", "."])
        ex = load_summarization_dataset(path, vocab)[0]
        assert ex.abstract_tokens == [["the", "fox", "ran", "."], ["it", "slept", "."]]

    def test_oov_tokens_map_to_unk(self, tmp_path):
        path = tmp_path / "data.tsv"
        self.write_record(path)
        vocab = Vocabulary(["the"])
        ex = load_summarization_dataset(path, vocab)[0]
        assert ex.paragraph_ids[0] == [vocab.token_to_id("the"), UNK_ID, UNK_ID]
        assert ex.paragraph_tokens[0] == ["the", "fox", "ran"]  # surface kept

    def test_empty_abstract_skipped_unless_allowed(self, tmp_path, caplog):
        path = tmp_path / "data.tsv"
        self.write_record(path, abstract="")
        vocab = Vocabulary(["the"])
        with caplog.at_level(logging.WARNING):
            assert load_summarization_dataset(path, vocab) == []
        kept = load_summarization_dataset(path, vocab, require_abstract=False)
        assert len(kept) == 1 and kept[0].abstract_tokens == []

    # a record whose three fields are all blank is a record too, not a blank line
    @pytest.mark.parametrize("fields", [{"paragraphs": " ⟨p⟩ "},
                                        {"title": "", "paragraphs": " ", "abstract": ""}],
                             ids=["no-paragraphs", "all-blank"])
    def test_record_without_paragraphs_skipped_with_a_warning(self, tmp_path, caplog, fields):
        path = tmp_path / "data.tsv"
        self.write_record(path, **fields)
        vocab = Vocabulary(["the"])
        for require_abstract in (True, False):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                loaded = load_summarization_dataset(path, vocab, require_abstract)
            if require_abstract:
                assert loaded == []
                assert caplog.messages == [f"{path}:1: no input paragraphs, record skipped"]
            else:
                # kept for generation, where it gets an empty output line
                assert [ex.paragraph_tokens for ex in loaded] == [[]]
                assert caplog.messages == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.tsv"
        record = "Topic A\tthe fox ran\tthe fox ran .\n"
        path.write_text(f"\n{record} \t \n{record}", encoding="utf-8")
        vocab = Vocabulary(["the", "fox", "ran", "."])
        examples = load_summarization_dataset(path, vocab)
        assert [ex.abstract_tokens for ex in examples] == [[["the", "fox", "ran", "."]]] * 2

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("only one field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_summarization_dataset(path, Vocabulary([]))

    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(["the", "fox", "ran", "it", "slept", "."])
        original = SummarizationExample(
            title="Topic A",
            paragraph_tokens=[["the", "fox", "ran"], ["it", "slept"]],
            paragraph_ids=[vocab.encode(["the", "fox", "ran"]), vocab.encode(["it", "slept"])],
            abstract_tokens=[["the", "fox", "ran", "."], ["it", "slept", "."]],
            abstract_ids=[vocab.encode(["the", "fox", "ran", "."]),
                          vocab.encode(["it", "slept", "."])],
        )
        path = tmp_path / "data.tsv"
        write_summarization_dataset(path, [original])
        loaded = load_summarization_dataset(path, vocab)[0]
        assert loaded.title == original.title
        assert loaded.paragraph_tokens == original.paragraph_tokens
        assert loaded.abstract_tokens == original.abstract_tokens
        assert loaded.abstract_ids == original.abstract_ids

    def test_tab_in_title_rejected_on_write(self, tmp_path):
        example = SummarizationExample(
            title="bad\ttitle", paragraph_tokens=[["x"]], paragraph_ids=[[1]],
            abstract_tokens=[["x"]], abstract_ids=[[1]])
        with pytest.raises(ValueError, match="tab"):
            write_summarization_dataset(tmp_path / "out.tsv", [example])


class TestArticleTokenSequences:
    def test_every_character_that_strip_keeps_makes_a_token(self):
        """`iter_paragraphs` yields stripped non-empty text, which holds a
        character that `str.strip` keeps; that character alone tokenizes to
        at least one token, so no paragraph's token list is empty."""
        kept = (chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)
        assert [c for c in kept if c.strip() and not tokenize(c)] == []

    def test_yields_paragraph_token_lists(self):
        sequences = list(article_token_sequences([make_article()]))
        assert len(sequences) == 4
        assert sequences[0][:2] == ["founded", "in"]
        assert all(tok == tok.lower() for seq in sequences for tok in seq)

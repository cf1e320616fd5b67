"""Spans recorded from outside the program, and the per-layer metrics made from them.

The traced run replaces module and class attributes of `topicsum.generator`
and `topicsum.autodiff` with wrappers that record a span per call; the
benchmark opens spans itself around the public calls it makes.  A span is
(name, start, end, parent span, item id, work), kept in memory and written
out when the run ends.  Untraced runs use `NullTracer`, whose hooks do
nothing, so their timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()

# generator functions the program reaches through module globals or
# class attributes, so that a wrapper installed here sees every call
_GENERATOR_FUNCTIONS = ("encode_topics", "predict_topic_step", "attention_step",
                        "token_distribution", "decode_sentence", "compute_losses")

# per-layer time metric -> (span name, item kind); the value is the layer's
# time per timed item of that kind
_LAYER_TIMES = {
    "autodiff.forward_ms": ("example_loss", "train"),
    "autodiff.backward_ms": ("Tape.backward", "train"),
    "autodiff.adam_ms": ("Adam.step", "train"),
    "generator.loss_ms": ("compute_losses", "train"),
    "generator.encode_ms": ("encode_topics", "abstract"),
    "generator.predict_ms": ("predict_topic_step", "abstract"),
    "generator.attention_ms": ("attention_step", "abstract"),
    "generator.output_ms": ("token_distribution", "abstract"),
    "rouge.dedup_ms": ("dedup_sentences", "abstract"),
}

# throughput metric -> span name; the value is summed work over summed time
_THROUGHPUTS = {
    "detector.train_examples_per_s": "train_detector",
    "detector.paragraphs_per_s": "detect_topics",
    "rouge.pairs_per_s": "evaluate_corpus",
}

UNITS = {
    "autodiff.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.adam_ms": "ms",
    "autodiff.tape_records": "count",
    "autodiff.backward_alloc_peak_mb": "MB",
    "autodiff.embedding_lookups": "count",
    "generator.encode_ms": "ms",
    "generator.predict_ms": "ms",
    "generator.decoder_gru_ms": "ms",
    "generator.attention_ms": "ms",
    "generator.output_ms": "ms",
    "generator.search_ms": "ms",
    "generator.loss_ms": "ms",
    "generator.gru_steps": "count",
    "generator.decoder_steps": "count",
    "generator.model_init_ms": "ms",
    "checkpoint.load_ms": "ms",
    "detector.train_examples_per_s": "1/s",
    "detector.paragraphs_per_s": "1/s",
    "rouge.pairs_per_s": "1/s",
    "rouge.dedup_ms": "ms",
    "trace.train_example_ms": "ms",
    "trace.abstract_ms": "ms",
    "trace.train_covered_pct": "%",
    "trace.abstract_covered_pct": "%",
}


class NullTracer:
    """Tracer interface with no effect, for the untraced runs."""

    def span(self, name: str, work: float = 0.0, track_alloc: bool = False):
        return _NULL

    def item(self, kind: str, timed: bool):
        return _NULL

    def note(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """Records spans and counts; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, item, work]
        self.items: list[tuple[str, bool]] = []   # (kind, timed) per item id
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.lookups: dict[int, int] = defaultdict(int)   # item id -> embedding lookups
        self.alloc_peak_bytes = 0
        self._stack = [-1]
        self._item = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, work: float) -> list:
        record = [name, 0.0, 0.0, self._stack[-1], self._item, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0, track_alloc: bool = False):
        """Time one call.  With `track_alloc`, the peak of new allocations
        made inside the span is measured with tracemalloc."""
        if track_alloc:
            tracemalloc.start()
        record = self._open(name, work)
        try:
            yield
        finally:
            self._close(record)
            if track_alloc:
                self.alloc_peak_bytes = max(self.alloc_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    @contextlib.contextmanager
    def item(self, kind: str, timed: bool):
        """One training example or one abstract; only timed items count."""
        self._item = len(self.items)
        self.items.append((kind, timed))
        record = self._open(f"item.{kind}", 0.0)
        try:
            yield
        finally:
            self._close(record)
            self._item = -1

    def note(self, name: str, value: float) -> None:
        if self._item >= 0 and self.items[self._item][1]:
            self.notes[name].append(value)

    # -- instrumentation ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name, 0.0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(record)

        self._patch(owner, attr, traced)

    def install(self, generator, autodiff) -> None:
        """Wrap the program's inner calls; `restore` undoes it."""
        for attr in _GENERATOR_FUNCTIONS:
            self._wrap(generator, attr, attr)
        self._wrap(generator.GRUCell, "step", "GRUCell.step")
        original_lookup = autodiff.embedding_lookup
        tracer = self

        def counted_lookup(table, token_ids):
            tracer.lookups[tracer._item] += 1
            return original_lookup(table, token_ids)

        self._patch(autodiff, "embedding_lookup", counted_lookup)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, item, work."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def metrics(self, samples: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
        """Per-layer values over the timed items; `samples` are the traced
        run's own (wall, reported) item times in seconds, keyed by item kind."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        timed_items = {kind: [i for i, (k, timed) in enumerate(self.items) if k == kind and timed]
                       for kind in ("train", "abstract")}
        kind_of = {i: kind for kind, ids in timed_items.items() for i in ids}
        n_items = {kind: max(1, len(ids)) for kind, ids in timed_items.items()}

        total = defaultdict(float)          # (span name, kind) -> seconds
        calls = defaultdict(int)            # (span name, kind) -> calls
        item_time = defaultdict(float)      # kind -> seconds inside timed items
        covered = defaultdict(float)        # kind -> seconds in the items' child spans
        decoder_gru = search_self = 0.0
        for index, (name, start, end, parent, item, _) in enumerate(spans):
            kind = kind_of.get(item)
            if kind is None:
                continue
            duration = end - start
            total[name, kind] += duration
            calls[name, kind] += 1
            if name.startswith("item."):
                item_time[kind] += duration
            elif spans[parent][0].startswith("item."):
                covered[kind] += duration
            if name == "GRUCell.step" and spans[parent][0] == "decode_sentence":
                decoder_gru += duration
            elif name == "decode_sentence":
                search_self += duration - child_time[index]

        values: dict[str, float] = {}
        for metric, (name, kind) in _LAYER_TIMES.items():
            values[metric] = 1e3 * total[name, kind] / n_items[kind]
        values["generator.decoder_gru_ms"] = 1e3 * decoder_gru / n_items["abstract"]
        values["generator.search_ms"] = 1e3 * search_self / n_items["abstract"]
        for metric, name in _THROUGHPUTS.items():
            chosen = [s for s in spans if s[0] == name]
            seconds = sum(s[2] - s[1] for s in chosen)
            values[metric] = sum(s[5] for s in chosen) / seconds if seconds else 0.0
        for metric, name in (("generator.model_init_ms", "GeneratorModel"),
                             ("checkpoint.load_ms", "load_into")):
            chosen = [s[2] - s[1] for s in spans if s[0] == name]
            values[metric] = 1e3 * statistics.fmean(chosen) if chosen else 0.0
        values["autodiff.tape_records"] = (statistics.fmean(self.notes["autodiff.tape_records"])
                                           if self.notes["autodiff.tape_records"] else 0.0)
        values["autodiff.embedding_lookups"] = (
            sum(self.lookups[i] for i in timed_items["train"]) / n_items["train"])
        values["generator.gru_steps"] = calls["GRUCell.step", "train"] / n_items["train"]
        values["generator.decoder_steps"] = calls["token_distribution", "abstract"] / n_items["abstract"]
        values["autodiff.backward_alloc_peak_mb"] = self.alloc_peak_bytes / 2**20
        for kind in ("train", "abstract"):
            values[f"trace.{kind}_covered_pct"] = (100.0 * covered[kind] / item_time[kind]
                                                   if item_time[kind] else 0.0)
        values["trace.train_example_ms"] = 1e3 * statistics.median(s[1] for s in samples["train"])
        values["trace.abstract_ms"] = 1e3 * statistics.median(s[1] for s in samples["abstract"])
        return values

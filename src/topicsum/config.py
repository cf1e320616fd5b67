"""Run configuration: plain "key = value" files with # comments."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

from .fileio import read_lines

__all__ = ["DecodeConfig", "RunConfig", "MAX_MODEL_SIZE", "load_config", "format_config"]

# the least legal value of each bounded number; stop_loss_weight = 0 trains
# without the stop loss, and numpy's generators take no negative seed
_MINIMUM = {
    **dict.fromkeys(("detector_epochs", "generator_epochs", "embed_size", "hidden_size",
                     "detector_embed_size", "detector_hidden_size", "ttg_cap", "beam_size",
                     "max_sentences", "max_sentence_tokens"), 1),
    "stop_loss_weight": 0,
    "seed": 0,
}
# the greatest legal value of each bounded count.  A beam step holds one
# [beam_size x max_sentences, V] float32 block: at most 1,024 x 50,000
# (205 MB) at the paper's V, inside a 256 MiB budget.  max_sentence_tokens
# caps the steps of one search.  A generator holds V(E + H + 1) + 9EH + 23H^2
# float32 weights: at most 136 M (544 MB) at the paper's V, inside a 1 GiB
# budget per copy; training keeps four copies (weights, gradients, Adam's
# two moments).  The detector's [V, E] table is smaller.
MAX_MODEL_SIZE = 1024
_MAXIMUM = {"beam_size": 32, "max_sentences": 32, "max_sentence_tokens": 200,
            **dict.fromkeys(("embed_size", "hidden_size", "detector_embed_size",
                             "detector_hidden_size"), MAX_MODEL_SIZE)}
_POSITIVE = frozenset({"detector_lr", "generator_lr_first", "generator_lr_rest"})


def _problem(key: str, value) -> str | None:
    """What makes `value` illegal for setting `key`, or None if it is legal."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value}"
    if key in _MINIMUM and value < _MINIMUM[key]:
        return f"must be at least {_MINIMUM[key]}, got {value}"
    if key in _MAXIMUM and value > _MAXIMUM[key]:
        return f"must be at most {_MAXIMUM[key]}, got {value}"
    if key in _POSITIVE and value <= 0:
        return f"must be positive, got {value}"
    if key == "topic_mode" and value not in ("soft", "hard"):
        return f"must be 'soft' or 'hard', got '{value}'"
    if key == "stop_threshold" and not 0.0 < value < 1.0:
        return f"must lie in (0, 1), got {value}"
    return None


@dataclass
class DecodeConfig:
    """Knobs shared by generation and training-time decoding.  Building
    one, or a RunConfig, with an illegal value raises ValueError."""

    topic_mode: str = "soft"
    stop_threshold: float = 0.5
    max_sentences: int = 10
    max_sentence_tokens: int = 60
    beam_size: int = 5
    ttg_cap: int = 400

    def __post_init__(self):
        for field in dataclasses.fields(self):
            problem = _problem(field.name, getattr(self, field.name))
            if problem:
                raise ValueError(f"'{field.name}' {problem}")


@dataclass
class RunConfig(DecodeConfig):
    seed: int = 42
    # file locations (relative paths resolve against the config file)
    schema_path: str = ""
    vocab_path: str = ""
    detector_train_path: str = ""
    detector_valid_path: str = ""
    summarization_train_path: str = ""
    summarization_valid_path: str = ""
    embeddings_path: str = ""
    detector_checkpoint: str = ""
    # detector
    detector_embed_size: int = 128
    detector_hidden_size: int = 128
    detector_epochs: int = 4
    detector_lr: float = 3e-5
    # generator
    embed_size: int = 300
    hidden_size: int = 512
    generator_epochs: int = 10
    generator_lr_first: float = 1e-4
    generator_lr_rest: float = 1e-5
    stop_loss_weight: float = 1.0


_PATH_KEYS = frozenset(
    f.name for f in dataclasses.fields(RunConfig)
    if f.name.endswith("_path") or f.name.endswith("_checkpoint")
)


def load_config(path, reads: Collection[str] = ()) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment, blank lines skipped.

    Unknown keys, malformed values and values `_problem` refuses (non-finite
    floats, counts, sizes and caps below 1, a model size above 1024, a
    beam_size or max_sentences above 32 or a max_sentence_tokens above 200,
    stop_loss_weight or seed below 0, learning rates of 0 or less, a
    topic_mode other than soft or hard, a stop_threshold outside (0, 1))
    raise with the offending line, as does a key set on an earlier line.
    Relative path values are resolved against the config file's directory.
    A key of `reads`, the path keys whose files the caller opens, that
    names no existing file raises with its line too; unset keys are the
    caller's to refuse.
    """
    path = Path(path)
    base = path.parent
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: '{key}' is already set on line {set_on[key]}")
        set_on[key] = lineno
        kind = fields[key].type
        try:
            if kind == "int":
                parsed: object = int(value)
            elif kind == "float":
                parsed = float(value)
            else:
                parsed = value
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for '{key}' ({exc})") from exc
        problem = _problem(key, parsed)
        if problem:
            raise ValueError(f"{path}:{lineno}: '{key}' {problem}")
        if key in _PATH_KEYS and parsed:
            candidate = Path(str(parsed))
            if not candidate.is_absolute():
                parsed = str(base / candidate)
            if key in reads and not Path(parsed).exists():
                raise ValueError(f"{path}:{lineno}: '{key}' names a missing file: {parsed}")
        values[key] = parsed
    return RunConfig(**values)


def format_config(config: RunConfig) -> str:
    """Render every field as "key = value" lines (resolved, in field order)."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines)

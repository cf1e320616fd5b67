"""Run configuration: plain "key = value" files with # comments."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = ["RunConfig", "load_config", "format_config"]


@dataclass
class RunConfig:
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
    # corpus
    n_t: int = 20
    ttg_cap: int = 400
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
    # decoding
    topic_mode: str = "soft"
    beam_size: int = 5
    stop_threshold: float = 0.5
    max_sentences: int = 10
    max_sentence_tokens: int = 60

    def __post_init__(self):
        if self.topic_mode not in ("soft", "hard"):
            raise ValueError(f"topic_mode must be 'soft' or 'hard', got '{self.topic_mode}'")


_PATH_KEYS = frozenset(
    f.name for f in dataclasses.fields(RunConfig)
    if f.name.endswith("_path") or f.name.endswith("_checkpoint")
)

# counts and sizes a run cannot use at 0; n_t = 0 is legal, it keeps the
# unmarked labels
_AT_LEAST_ONE = frozenset({
    "detector_epochs", "generator_epochs", "embed_size", "hidden_size",
    "detector_embed_size", "detector_hidden_size", "ttg_cap", "beam_size",
    "max_sentences", "max_sentence_tokens",
})


def load_config(path) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment, blank lines skipped.

    Unknown keys, malformed values, non-finite floats, epoch counts, model
    sizes and decoding caps below 1, a topic_mode other than soft or hard,
    and a stop_threshold outside (0, 1) raise with the offending line
    number.
    Relative path values are resolved against the config file's directory.
    """
    path = Path(path)
    base = path.parent
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
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
        if kind == "float" and not math.isfinite(parsed):
            raise ValueError(f"{path}:{lineno}: '{key}' must be finite, got {parsed}")
        if key in _AT_LEAST_ONE and parsed < 1:
            raise ValueError(f"{path}:{lineno}: '{key}' must be at least 1, got {parsed}")
        if key == "topic_mode" and parsed not in ("soft", "hard"):
            raise ValueError(f"{path}:{lineno}: 'topic_mode' must be 'soft' or 'hard', "
                             f"got '{parsed}'")
        if key == "stop_threshold" and not 0.0 < parsed < 1.0:
            raise ValueError(f"{path}:{lineno}: 'stop_threshold' must lie in (0, 1), got {parsed}")
        if key in _PATH_KEYS and parsed:
            candidate = Path(str(parsed))
            if not candidate.is_absolute():
                parsed = str(base / candidate)
        values[key] = parsed
    return RunConfig(**values)


def format_config(config: RunConfig) -> str:
    """Render every field as "key = value" lines (resolved, in field order)."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines)

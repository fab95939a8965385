"""Layered configuration: defaults < config file < environment < CLI flags."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .prompting import PromptVariant

ENV_PREFIX = "RELANNO_"
CALIBRATIONS = ("ask", "tok", "both")


@dataclass(frozen=True)
class Config:
    base_url: str = "http://127.0.0.1:8000"
    chat_model: str = "gpt-4"
    embedding_model: str = "text-embedding-3-small"
    api_key_env: str = "RELANNO_API_KEY"
    cache_dir: Optional[str] = None  # an empty value means no cache
    max_attempts: int = 4
    backoff_base: float = 0.5
    embed_batch_size: int = 2048  # OpenAI's endpoint takes at most 2048
    parallelism: int = 8  # chat requests in flight at once
    variant: str = "point-ask-d"
    calibration: str = "both"
    seed: int = 40
    k: int = 5
    per_side: int = 30
    per_bin: int = 50
    ece_bins: int = 10
    min_tokens: int = 120
    query_test_fraction: float = 0.35
    report_test_fraction: float = 0.375


KEYS = {f.name: f.default for f in fields(Config)}
# Where each numeric setting must lie, as a config key or as a flag of its own:
# (least, greatest, whether the value may equal them). Every one is finite.
BOUNDS = {
    **dict.fromkeys(["max_attempts", "embed_batch_size", "parallelism", "k", "per_side",
                     "per_bin", "ece_bins", "min_tokens", "cutoff_k", "steps"],
                    (1, math.inf, True)),  # cutoff_k is evaluate --k
    "backoff_base": (0, math.inf, True),
    # Open, so that both sides of the split get something.
    **dict.fromkeys(["query_test_fraction", "report_test_fraction"], (0, 1, False)),
    "cutoff": (0, 1, True),  # audit --cutoff, a confidence
}
# The longest backoff, in seconds (about 32 years): `time.sleep` fails on a
# delay near `threading.TIMEOUT_MAX`, some 9.2e9 s, and takes 9e9 s.
MAX_BACKOFF_S = 1e9


def check_number(name: str, value: float) -> float:
    """value, if it is finite and within the bounds of the setting name."""
    if not -math.inf < value < math.inf:  # NaN fails too
        raise ValueError(f"must be a finite number, got {value}")
    low, high, closed = BOUNDS.get(name, (-math.inf, math.inf, True))
    if not (low <= value <= high if closed else low < value < high):
        need = (f"at least {low}" if high == math.inf
                else f"{'' if closed else 'strictly '}between {low} and {high}")
        raise ValueError(f"must be {need}, got {value}")
    return value


def _convert(key: str, raw: str, source: str):
    """The typed value of one config entry; source names where it was set."""
    if key == "cache_dir":
        return raw or None
    try:
        if key == "variant":
            PromptVariant.from_label(raw)
        elif key == "calibration" and raw not in CALIBRATIONS:
            raise ValueError(f"must be one of {', '.join(CALIBRATIONS)}, got {raw!r}")
        elif isinstance(KEYS[key], (int, float)):
            return check_number(key, type(KEYS[key])(raw))
    except ValueError as exc:
        raise ValueError(f"{source}: {key}: {exc}") from None
    return raw


def load_config(path: Optional[str | Path] = None) -> Config:
    """KEY=VALUE file with '#' comments; RELANNO_<KEY> env vars override it.

    An unknown key in the file is an error. Environment variables that name
    no key are not: RELANNO_API_KEY, for one, holds the API key itself.
    """
    values = {}
    if path:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip().lower()
                if key not in KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _convert(key, value.strip(), f"{path}:{lineno}")
    for key in KEYS:
        name = ENV_PREFIX + key.upper()
        if name in os.environ:
            values[key] = _convert(key, os.environ[name], name)
    config = Config(**values)
    # Compared without computing backoff_base * 2 ** (max_attempts - 2), which can overflow.
    if config.backoff_base > math.ldexp(MAX_BACKOFF_S, -max(config.max_attempts - 2, 0)):
        raise ValueError(f"max_attempts={config.max_attempts} with backoff_base="
                         f"{config.backoff_base}: the longest backoff, backoff_base * 2 ** "
                         f"(max_attempts - 2), must be at most {MAX_BACKOFF_S:g} s")
    return config

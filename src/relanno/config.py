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
# The least value of each numeric key that has one; every numeric value is finite.
_MINIMUMS = {"max_attempts": 1, "backoff_base": 0, "embed_batch_size": 1, "parallelism": 1}


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
            value = type(KEYS[key])(raw)
            if not -math.inf < value < math.inf:  # NaN fails too
                raise ValueError(f"must be a finite number, got {raw!r}")
            if key in _MINIMUMS and value < _MINIMUMS[key]:
                raise ValueError(f"must be at least {_MINIMUMS[key]}, got {value}")
            return value
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
    return Config(**values)

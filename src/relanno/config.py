"""Layered configuration: defaults < config file < environment < CLI flags."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

DEFAULTS: dict[str, str] = {
    "base_url": "http://127.0.0.1:8000",
    "chat_model": "gpt-4",
    "embedding_model": "text-embedding-3-small",
    "api_key_env": "RELANNO_API_KEY",
    "cache_dir": "",
    "max_attempts": "4",
    "backoff_base": "0.5",
    "embed_batch_size": "2048",
    "variant": "point-ask-d",
    "calibration": "both",
    "seed": "40",
    "k": "5",
    "per_side": "30",
    "per_bin": "50",
    "ece_bins": "10",
    "min_tokens": "120",
    "query_test_fraction": "0.35",
    "report_test_fraction": "0.375",
}

ENV_PREFIX = "RELANNO_"


def load_config(path: Optional[str | Path] = None) -> dict[str, str]:
    """KEY=VALUE file with '#' comments; RELANNO_<KEY> env vars override."""
    config = dict(DEFAULTS)
    if path:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
                key, value = line.split("=", 1)
                config[key.strip().lower()] = value.strip()
    for key in config:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            config[key] = env_value
    return config

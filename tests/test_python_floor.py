"""Every Python file parses as the oldest Python that `pyproject.toml`
declares (`requires-python`), so syntax newer than that floor fails here,
whatever Python runs the suite."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def python_files() -> list[Path]:
    return sorted(path for top in ("src", "tests", "perfbench")
                  for path in (ROOT / top).rglob("*.py"))


def test_the_floor_is_declared():
    assert declared_floor() == (3, 10)


@pytest.mark.parametrize("path", python_files(), ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_floor())

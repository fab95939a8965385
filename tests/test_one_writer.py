"""Every whole-file output is opened by `corpus._published`, and annotate's
streamed rows by `corpus.RowWriter`: no other code in the package opens a
file to write it."""

import ast

from test_dead_code import package_sources

# (module, top-level definition) allowed to open a file for writing.
WRITERS = {("corpus.py", "_published"), ("corpus.py", "RowWriter")}


def _mode(call: ast.Call):
    """The mode argument of an `open(path, mode)` or `path.open(mode)` call,
    or None when it has none."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    """Whether a call opens a file to write it. A mode that is not a literal
    counts as writing: nothing here can tell."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def stray_writers(sources: dict[str, str]) -> list[str]:
    """`module:line` of each call that opens a file for writing outside WRITERS."""
    stray = []
    for module, code in sorted(sources.items()):
        for statement in ast.parse(code).body:
            if (module, getattr(statement, "name", None)) in WRITERS:
                continue
            stray += [f"{module}:{node.lineno}" for node in ast.walk(statement)
                      if isinstance(node, ast.Call) and _writes(node)]
    return stray


def test_only_the_publisher_and_the_row_writer_open_files_to_write():
    assert stray_writers(package_sources()) == []


def test_scan_flags_each_write_mode_outside_the_writers():
    sources = {
        "corpus.py": ("def _published(path):\n    return open(path, 'w')\n"
                      "class RowWriter:\n    def __init__(self, path):\n"
                      "        self._file = open(path, mode='a')\n"
                      "def write_csv(path):\n    return open(path, 'w', newline='')\n"),
        "cli.py": ("def read(path):\n    return open(path), open(path, 'rb'), path.open()\n"
                   "def append(path, mode):\n    open(path, 'a')\n    path.open('x')\n"
                   "    open(path, 'r+')\n    open(path, mode)\n"),
    }
    assert stray_writers(sources) == ["cli.py:4", "cli.py:5", "cli.py:6", "cli.py:7",
                                      "corpus.py:7"]

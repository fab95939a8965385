"""No module of the package reads another module's private (underscore) name:
neither by importing it (`from .corpus import _name`) nor through a module
alias (`from . import corpus as corpus_mod`, then `corpus_mod._name`). A rule
that two modules need gets a public name in the module that owns it."""

import ast

from test_dead_code import package_sources


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _internal(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "relanno"


def private_reads(sources: dict[str, str]) -> list[str]:
    """`module:line name` of each read of another module's private name in
    sources (file name -> code)."""
    found = []
    for module, code in sorted(sources.items()):
        tree = ast.parse(code)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _internal(node):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{module}:{node.lineno} {alias.name}")
                    aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name.split(".")[0] == "relanno")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                found.append(f"{module}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_name():
    assert private_reads(package_sources()) == []


def test_scan_flags_each_planted_private_read():
    sources = {
        "cli.py": ("import os\nfrom . import corpus as corpus_mod\n"
                   "from .corpus import read_jsonl, __version__\n"
                   "def f(path):\n    os._exit(corpus_mod.read_jsonl(path))\n"
                   "    return corpus_mod._own_fd(path)\n"),
        "gateway.py": ("from .corpus import RowError, _unicode\n"
                       "from relanno.prompting import _TEMPLATES as templates\n"),
        "metrics.py": ("import relanno.corpus as c\nfrom collections import _chain\n"
                       "def g(value):\n    self._x = value\n    return c._finite(value)\n"),
    }
    assert private_reads(sources) == ["cli.py:6 corpus_mod._own_fd", "gateway.py:1 _unicode",
                                      "gateway.py:2 _TEMPLATES", "metrics.py:5 c._finite"]
